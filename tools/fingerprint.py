"""Fingerprint the artifacts of both benchmark workloads on their reference tables.

Usage, from anywhere:

    python3 tools/fingerprint.py                            # this checkout's src/
    PYTHONPATH=<other checkout>/src python3 tools/fingerprint.py
    python3 tools/fingerprint.py > LEDGER.json              # rewrite the ledger

The tables come from ``perfbench/workloads.setup(..., 0, ...)`` and are
written to a temporary directory.  Each run goes through
``eggimpute.cli.main`` and writes under its own key prefix:

- ``kegg-grid``: ``benchmark`` and ``report`` on the ``kegg-grid`` table.
- ``egg-impute``: ``corrupt``, ``train``, ``impute`` and ``evaluate`` on
  the ``egg-impute`` table, then ``corrupt`` under MAR, whose mask no
  workload writes.
- ``kegg-steps``: ``corrupt``, ``train`` and ``impute`` with ``blocks: 2``
  on the ``kegg-grid`` table, whose two categorical columns give the
  checkpoint every array family the all-numeric, one-block ``egg-impute``
  checkpoint lacks (``embedding.*``, ``head_cat.*``, ``mlp_proj.1.*``,
  ``gcn.1.w``, ``bn.mlp_proj.1.*``) and the imputation a two-block
  ensemble with categorical picks.
- ``ablation-steps``: the same three steps with method ``nn_ablation`` on
  that table, so the identity graph of the ablation is checked.
- ``small-batch``: the same three steps with method ``egg`` on that table
  at ``train.batch_size`` ``SMALL_BATCH``, ``max_epochs`` 2 and ``hidden``
  16, where many training steps mask no categorical cell and some no
  numeric one, so a loss term that scores no cell is checked to give its
  head a zero step.
- ``kegg-tail``: the same three steps with method ``kegg``, no prototype,
  ``hidden`` 16 and ``max_epochs`` 2 at ``train.batch_size``
  ``TAIL_BATCH``, so each epoch ends on a one-row batch whose identity
  graph reaches no projector, and a parameter that a step does not reach
  is checked to take a zero step.
- ``all-categorical``: ``corrupt``, ``train``, ``impute`` and ``evaluate``
  with method ``egg``, ``hidden`` 16 and ``max_epochs`` 2 on the
  ``kegg-grid`` table with all of its columns binned into 4 levels, so a
  table with no numeric column is checked (the 1-wide numeric head, the
  empty numeric slice of the ensemble and loss, and the empty ``rmse``
  and ``mae``).
- ``knn-steps``: ``corrupt`` under MAR and ``impute`` with method ``knn``
  on the 2000-row ``egg-impute`` table, so the KNN donors of a large
  numeric table are checked byte for byte.
- ``report-seeds``: ``benchmark`` with methods ``mean`` and ``knn`` and
  ``grid.seeds: [0, 1]`` on the ``kegg-grid`` table, then ``report``, so
  the ranking of several seeds is checked.
- ``datasets``: ``benchmark`` with methods ``mean`` and ``knn`` over two
  ``datasets`` entries, ``a`` and ``b``, that both name the ``kegg-grid``
  table, then ``report``, so the jobs' expansion over tables, their order
  and their names are checked.
- ``blank-cells``: ``corrupt`` under MAR and under MNAR on the
  ``egg-impute`` table with a fixed 5% of its cells left blank, so the
  masks drawn where the file's own missing cells meet the corruption are
  checked.
- ``forest``: ``evaluation.rf_fit`` on the ``kegg-grid`` table's one-hot
  rows with the forest seed of master seed 0, hashing every tree's
  preorder (depth, feature, threshold, prediction), which
  ``downstream_accuracy`` is too coarse to pin.
- ``forest-nonfinite``: the same on the 2000-row ``egg-impute`` table with
  a seeded 5% of its cells set to NaN and 2% each to +inf and -inf, so the
  routing of non-finite cells is checked over rounds that span several
  slices of the grower.

Standard output is one JSON object.  Its ``fingerprint`` holds the
sha256 of each artifact's content with the timing fields left out, of
each checkpoint array and of the forest's trees, the forest's node
count, and the parsed checkpoint ``__meta__``.  Its ``environment`` holds
what the fingerprints depend on besides the code: the numpy version, the
BLAS's name, version and core type, and the BLAS thread count (the
fingerprints are exact only at a fixed thread count).  Two outputs that
diff clean mean the two programs wrote the same results.

``LEDGER.json`` at the repository root is this output, redirected there.
``tests/test_ledger.py`` reruns this script pinned to the ledger's thread
count and compares the fingerprints when the rest of the environment
matches, so a change that moves results rewrites the ledger in the same
commit.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.append(str(ROOT / "src"))  # PYTHONPATH, when set, comes first

import workloads  # noqa: E402
from eggimpute import cli, dataio, evaluation, missingness  # noqa: E402

TIMING = ("train_seconds", "inference_seconds", "seconds")
SMALL_BATCH = 4  # 41 of the 140 steps mask no categorical cell, 3 no numeric one
TAIL_BATCH = 279  # of the 280 training rows, so each epoch ends on a one-row batch


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _json_sha(value):
    return _sha(json.dumps(value, sort_keys=True).encode())


def _untimed(value):
    """``value`` without the timing keys of any dict inside it."""
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if k not in TIMING}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def _array_sha(array):
    return _sha(f"{array.dtype.str}{array.shape}".encode() + array.tobytes())


def _results(path):
    with open(path, newline="") as fh:
        return _json_sha(_untimed(list(csv.DictReader(fh))))


def _run(directory, *commands):
    """Run each eggimpute command in ``directory``, its chatter sent to stderr;
    stop at the first that fails."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            for argv in commands:
                if cli.main(argv) != 0:
                    raise SystemExit(f"`eggimpute {' '.join(argv)}` failed in {directory}")
    finally:
        os.chdir(previous)


def _step(command):
    return [command, "--config", workloads.CONFIG, "--out", "out"]


def _checkpoint(path):
    out = {}
    with np.load(path) as data:
        for name in data.files:
            if name == "__meta__":
                out["checkpoint.npz:__meta__"] = _untimed(json.loads(bytes(data[name]).decode()))
            else:
                out[f"checkpoint.npz:{name}"] = _array_sha(data[name])
    return out


def kegg_grid(directory, grid=None, **settings):
    """``benchmark`` and ``report`` on the ``kegg-grid`` table, its grid updated by ``grid``
    and its top-level settings by ``settings``."""
    workloads.setup("kegg-grid", 0, directory)
    if grid or settings:
        config = json.loads((directory / workloads.CONFIG).read_text())
        config["grid"].update(grid or {})
        config.update(settings)
        (directory / workloads.CONFIG).write_text(json.dumps(config))
    _run(directory, _step("benchmark"), ["report", "--results", "out/results.csv"])
    summary = json.loads((directory / "out" / "summary.json").read_text())
    summary.pop("timing")
    return {"results.csv": _results(directory / "out" / "results.csv"),
            "summary.json": _json_sha(summary)}


def egg_impute(directory):
    workloads.setup("egg-impute", 0, directory)
    _run(directory, *(_step(c) for c in ("corrupt", "train", "impute", "evaluate")))
    rd = directory / "out" / "table" / "mcar" / "0.2" / "egg" / str(workloads.PIPELINE_SEED)
    out = {name: _sha((rd / name).read_bytes())
           for name in ("mask.csv", "imputed.csv", "imputed_z.npy")}
    out["results.csv"] = _results(directory / "out" / "results.csv")
    out["report.json"] = _json_sha(_untimed(json.loads((rd / "report.json").read_text())))
    history = _untimed(json.loads((rd / "history.json").read_text()))
    out.update({f"history.json:{k}": _json_sha(v) for k, v in history.items()})
    out.update(_checkpoint(rd / "checkpoint.npz"))
    _run(directory, _step("corrupt") + ["--mechanism", "mar"])
    mar = directory / "out" / "table" / "mar" / "0.2" / "egg" / str(workloads.PIPELINE_SEED)
    out["mar/mask.csv:bits"] = _array_sha(missingness.load_mask(mar / "mask.csv"))
    return out


def _model_steps(directory, method, train=None, table=None, **model):
    """``corrupt``, ``train`` and ``impute`` with ``method`` on the ``kegg-grid`` table, or
    on ``table`` written in its place, its train settings updated by ``train`` and its model
    settings by ``model``: the checkpoint arrays and ``imputed_z.npy`` of the MNAR run."""
    workloads.setup("kegg-grid", 0, directory)
    if table is not None:
        dataio.write_csv(table, None, directory / workloads.TABLE, directory / workloads.SCHEMA)
    config = json.loads((directory / workloads.CONFIG).read_text())
    config["train"].update(train or {})
    config["train"]["model"].update(model)
    (directory / workloads.CONFIG).write_text(json.dumps(config))
    flags = ["--method", method]
    _run(directory, *(_step(c) + flags for c in ("corrupt", "train", "impute")))
    rd = directory / "out" / "table" / "mnar" / "0.2" / method / str(workloads.PIPELINE_SEED)
    return {**_checkpoint(rd / "checkpoint.npz"),
            "imputed_z.npy": _sha((rd / "imputed_z.npy").read_bytes())}


def kegg_steps(directory):
    return _model_steps(directory, "kegg", blocks=2)


def small_batch(directory):
    return _model_steps(directory, "egg", {"batch_size": SMALL_BATCH, "max_epochs": 2},
                        hidden=16)


def kegg_tail(directory):
    return _model_steps(directory, "kegg", {"batch_size": TAIL_BATCH, "max_epochs": 2},
                        hidden=16, prototypes=0)


def all_categorical(directory):
    table = workloads.make_table("kegg-grid", 0)
    for j in table.numeric_idx:  # binned as make_table bins its categorical columns
        column = table.values[:, j]
        table.values[:, j] = np.digitize(column, np.quantile(column, [0.25, 0.5, 0.75]))
        table.schema[j] = dataio.ColumnSchema(f"f{j}", dataio.CATEGORICAL, 4,
                                              ["q0", "q1", "q2", "q3"])
    out = _model_steps(directory, "egg", {"max_epochs": 2}, table, hidden=16)
    _run(directory, _step("evaluate") + ["--method", "egg"])
    rd = directory / "out" / "table" / "mnar" / "0.2" / "egg" / str(workloads.PIPELINE_SEED)
    out["imputed.csv"] = _sha((rd / "imputed.csv").read_bytes())
    out["results.csv"] = _results(directory / "out" / "results.csv")
    return out


def ablation_steps(directory):
    return _model_steps(directory, "nn_ablation")


def knn_steps(directory):
    workloads.setup("egg-impute", 0, directory)
    flags = ["--mechanism", "mar", "--method", "knn"]
    _run(directory, _step("corrupt") + flags, _step("impute") + flags)
    rd = directory / "out" / "table" / "mar" / "0.2" / "knn" / str(workloads.PIPELINE_SEED)
    return {name: _sha((rd / name).read_bytes())
            for name in ("mask.csv", "imputed_z.npy", "imputed.csv")}


def report_seeds(directory):
    return kegg_grid(directory, {"methods": ["mean", "knn"], "seeds": [0, 1]})


def datasets(directory):
    tables = [{"name": name, "csv": workloads.TABLE, "schema": workloads.SCHEMA}
              for name in ("a", "b")]
    return kegg_grid(directory, {"methods": ["mean", "knn"]}, datasets=tables)


def blank_cells(directory):
    inputs = workloads.setup("egg-impute", 0, directory)
    blank = np.random.default_rng(0).random(inputs.truth.values.shape) < 0.05
    dataio.write_csv(inputs.truth, ~blank, directory / workloads.TABLE)
    out = {}
    for mechanism in ("mar", "mnar"):
        _run(directory, _step("corrupt") + ["--mechanism", mechanism])
        rd = directory / "out" / "table" / mechanism / "0.2" / "egg" / str(workloads.PIPELINE_SEED)
        out[f"{mechanism}/mask.csv:bits"] = _array_sha(missingness.load_mask(rd / "mask.csv"))
    return out


def _preorder(tree):
    """(depth, feature, threshold, prediction) of every node of ``tree``, in preorder."""
    out, stack = [], [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        out.append((depth, node.feature, node.threshold, node.prediction))
        if node.feature is not None:
            stack += [(node.right, depth + 1), (node.left, depth + 1)]
    return out


def _forest(workload, directory, nonfinite=False):
    """The forest of ``workload``'s one-hot rows, with a seeded 5% of its cells set
    to NaN and 2% each to +inf and -inf when ``nonfinite``."""
    workloads.setup(workload, 0, directory)
    ds, _ = dataio.load_csv(directory / workloads.TABLE, directory / workloads.SCHEMA)
    x = evaluation.one_hot_features(ds.values, ds.schema)
    if nonfinite:
        draw = np.random.default_rng(0).random(x.shape)
        x[draw < 0.05] = np.nan
        x[(0.05 <= draw) & (draw < 0.07)] = np.inf
        x[(0.07 <= draw) & (draw < 0.09)] = -np.inf
    fit = evaluation.rf_fit(x, ds.targets, seed=cli._stage_seed_int(0, "forest"))
    trees = [_preorder(tree) for tree in fit.trees]
    return {"trees": _json_sha(trees), "nodes": sum(map(len, trees))}


def forest(directory):
    return _forest("kegg-grid", directory)


def forest_nonfinite(directory):
    return _forest("egg-impute", directory, nonfinite=True)


def _openblas(name, restype):
    """What the loaded OpenBLAS's ``openblas_<name>`` returns (under its plain or its
    scipy-openblas symbol), or None when no library answers."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas("get_corename", ctypes.c_char_p)
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_core": core and core.decode(),
            "blas_threads": _openblas("get_num_threads", ctypes.c_int)}


def main():
    fingerprint = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in (("kegg-grid", kegg_grid), ("egg-impute", egg_impute),
                          ("kegg-steps", kegg_steps), ("ablation-steps", ablation_steps),
                          ("small-batch", small_batch), ("kegg-tail", kegg_tail),
                          ("all-categorical", all_categorical),
                          ("knn-steps", knn_steps),
                          ("report-seeds", report_seeds), ("datasets", datasets),
                          ("blank-cells", blank_cells), ("forest", forest),
                          ("forest-nonfinite", forest_nonfinite)):
            for key, value in run(Path(tmp) / name).items():
                fingerprint[f"{name}/{key}"] = value
    print(json.dumps({"environment": environment(), "fingerprint": fingerprint}, indent=1,
                     sort_keys=True))


if __name__ == "__main__":
    main()
