import numpy as np
import pytest
from hypothesis import settings

from eggimpute import dataio, ensemble, missingness, model
from eggimpute import tensor as T

# fixed examples and no per-example deadline: every run tries the same
# cases, and a busy host cannot fail one on timing
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def central_difference(f, x, h=1e-6):
    """Finite-difference gradient of scalar f at array x (independent oracle)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return grad


def rel_error(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def mixed_dataset():
    """24-row table with 3 numeric and 1 categorical (3 classes) columns."""
    gen = np.random.default_rng(7)
    n = 24
    values = np.zeros((n, 4))
    values[:, :3] = gen.normal(size=(n, 3))
    values[:, 3] = gen.integers(0, 3, size=n)
    schema = [dataio.ColumnSchema("a", dataio.NUMERICAL),
              dataio.ColumnSchema("b", dataio.NUMERICAL),
              dataio.ColumnSchema("c", dataio.NUMERICAL),
              dataio.ColumnSchema("cat", dataio.CATEGORICAL, cardinality=3,
                                  categories=["x", "y", "z"])]
    targets = gen.integers(0, 2, size=n)
    return dataio.TabularDataset(schema, values, targets, 2, ["no", "yes"])


@pytest.fixture
def small_mixed_dataset():
    return mixed_dataset()


def make_batch(ds, rows, initial_mask, surr_rate, seed=0):
    surr = missingness.surrogate_mask(initial_mask[rows], surr_rate,
                                     np.random.default_rng(seed))
    return missingness.preprocess_batch(ds, rows, initial_mask, surr)


def impute_once(ds, rows, initial_mask, params, rng):
    """One stochastic eval-mode forward for ``rows``, no cell surrogate-masked
    and no tape recorded: what ``ensemble.ensemble_impute`` with one pass of
    one batch must equal."""
    surr = np.ones((len(rows), ds.n_cols), dtype=np.int8)
    with T.no_tape():
        batch = missingness.preprocess_batch(ds, rows, initial_mask, surr)
        return model.forward(batch, params, ensemble.TAU, "eval", rng)
