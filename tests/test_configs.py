"""One property over model configs: the stepwise pipeline (``_prepare``,
``_fit``, ``_impute_all``, ``_evaluate``) on a drawn table, method, model
shape, batch size, triplet weight and corruption either ends with finite
imputations that keep every observed cell, or with the corruption step's
``ValueError`` for a table MAR cannot corrupt.  Along the way no step
applies another step's gradient, and the model computes in float32 while
the same forward on float64 parameters stays float64.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from eggimpute import cli, dataio, model, objectives, training
from eggimpute.tensor import Tensor


@st.composite
def tables(draw):
    """4-24 rows of 0-3 numeric and 0-3 categorical columns (1-4 levels, one column
    at least), with 1-3 classes."""
    rows = draw(st.integers(4, 24), label="rows")
    numeric = draw(st.integers(0, 3), label="numeric")
    levels = draw(st.lists(st.integers(1, 4), min_size=0 if numeric else 1, max_size=3),
                  label="levels")
    classes = draw(st.integers(1, 3), label="classes")
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16), label="table seed"))
    schema = [dataio.ColumnSchema(f"n{j}", dataio.NUMERICAL) for j in range(numeric)]
    schema += [dataio.ColumnSchema(f"c{j}", dataio.CATEGORICAL, c, [f"l{i}" for i in range(c)])
               for j, c in enumerate(levels)]
    columns = [gen.normal(size=rows) for _ in range(numeric)]
    columns += [gen.integers(0, c, size=rows).astype(float) for c in levels]
    return dataio.TabularDataset(schema, np.column_stack(columns),
                                 gen.integers(0, classes, size=rows), classes)


@st.composite
def configs(draw, rows):
    method = draw(st.sampled_from(list(cli.MODEL_METHODS)), label="method")
    mechanism = draw(st.sampled_from(["mcar", "mar", "mnar"]), label="mechanism")
    return {"name": "t", "seed": draw(st.integers(0, 2 ** 16), label="seed"),
            "train_fraction": 0.7, "mechanism": mechanism,
            "rate": draw(st.sampled_from([0.1, 0.3, 0.6]), label="rate"),
            "method": method, "ensemble": draw(st.integers(1, 3), label="passes"), "knn_k": 5,
            "train": {"batch_size": draw(st.integers(1, rows), label="batch_size"),
                      "max_epochs": draw(st.integers(1, 3), label="epochs"),
                      "learning_rate": 1e-3,
                      "weights": {"triplet": draw(st.sampled_from([0.0, 0.1]),
                                                  label="triplet")},
                      "model": {"blocks": draw(st.integers(1, 3), label="blocks"),
                                "prototypes": draw(st.integers(0, 3), label="prototypes"),
                                "hidden": draw(st.integers(1, 6), label="hidden"),
                                "embed_width": draw(st.integers(1, 3), label="embed_width"),
                                "k": draw(st.integers(1, 4), label="k")}}}


class Recorder:
    """Every tensor's dtype, each step's stale gradients and the dtypes a step reads."""

    def __init__(self, mp):
        self.dtypes, self.stale, self.step_dtypes = set(), [], set()
        self.named, self.before = {}, {}
        real_init, real_backward, real_step = Tensor.__init__, Tensor.backward, \
            training.rmsprop_step

        def init(tensor, data, requires_grad=False):
            real_init(tensor, data, requires_grad)
            self.dtypes.add(tensor.data.dtype)

        def backward(loss):
            # the first backward precedes the first step, when every grad is still None
            self.before.update((name, p.grad) for name, p in self.named.items())
            real_backward(loss)

        def step(params, acc, lr):
            self.named.update(params)
            self.stale += [name for name, p in params.items()
                           if p.grad is not None and p.grad is self.before.get(name)]
            self.step_dtypes.update(a.dtype for p in params.values()
                                    for a in (p.data, p.grad) if a is not None)
            self.step_dtypes.update(s.dtype for s in acc.values())
            real_step(params, acc, lr)

        mp.setattr(Tensor, "__init__", init)
        mp.setattr(Tensor, "backward", backward)
        mp.setattr(training, "rmsprop_step", step)


def _float64_step(prep, trained, cfg):
    """The dtypes of every tensor and gradient of one training step's forward and
    backward on the trained parameters cast to float64."""
    rows = prep.train_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "DTYPE", np.float64)
        recorder = Recorder(mp)
        wide = model.ParameterSet(trained.params.config, prep.ds_norm.schema,
                                  prep.ds_norm.num_classes, seed=0)
        wide.load_state_arrays(trained.params.state_arrays())
        weights = trained.config.weights
        surr = np.ones((len(rows), prep.ds_norm.n_cols), dtype=np.int8)
        surr[:, 0] = 0  # every row gives the first column's head a target
        parts = training._batch_loss(prep.ds_norm, rows, prep.mask, surr, wide, 0.5, "train",
                                     np.random.default_rng(cfg["seed"]), weights,
                                     np.random.default_rng(0))
        objectives.total_loss(parts, weights).backward()
    grads = {p.grad.dtype for p in wide.named_parameters().values() if p.grad is not None}
    arrays = {a.dtype for a in wide.state_arrays().values()}
    return recorder.dtypes | grads | arrays


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ds=tables())
def test_every_model_config_imputes_finitely_in_float32(data, ds):
    cfg = data.draw(configs(ds.n_rows), label="config")
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        # the library's own: a column with no observed cell, a single-class forest
        warnings.filterwarnings("ignore", category=UserWarning, module="eggimpute")
        recorder = Recorder(mp)
        try:
            prep = cli._prepare(cfg, (ds, np.ones(ds.values.shape, dtype=np.int8)))
        except ValueError as err:  # a table MAR cannot corrupt at this rate
            assert cfg["mechanism"] == "mar", err
            reject()
        trained, _ = cli._fit(cfg, prep)
        imputed = cli._impute_all(cfg, cfg["method"], prep.ds_norm, prep.ds_norm, prep.mask,
                                  prep.train_rows, prep.val_rows, trained.params)
        cli._evaluate(cfg, prep, imputed)
    assert imputed.dtype == np.float64 and np.isfinite(imputed).all()
    observed = prep.mask == 1
    assert np.array_equal(imputed[observed], prep.ds_norm.values[observed])
    assert not recorder.stale, f"a step reused an earlier step's gradient of {recorder.stale}"
    assert recorder.dtypes == recorder.step_dtypes == {np.dtype(np.float32)}
    assert {a.dtype for a in trained.params.state_arrays().values()} == {np.dtype(np.float32)}
    assert _float64_step(prep, trained, cfg) == {np.dtype(np.float64)}
