from dataclasses import asdict

import numpy as np
import pytest

from eggimpute import dataio, ensemble, missingness, model, objectives, training
from eggimpute.tensor import Tensor


def test_temperature_schedule_endpoints():
    assert training.temperature(0, 100, 0.5, 0.01) == pytest.approx(0.5)
    assert training.temperature(50, 100, 0.5, 0.01) == pytest.approx(0.255)
    assert training.temperature(100, 100, 0.5, 0.01) == 0.01
    assert training.temperature(500, 100, 0.5, 0.01) == 0.01  # clamped


def test_temperature_monotone_decreasing():
    taus = [training.temperature(s, 50, 0.5, 0.01) for s in range(60)]
    assert all(a >= b for a, b in zip(taus, taus[1:]))


def test_rmsprop_single_step_hand_oracle():
    w = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    w.grad = np.array([[0.5, -1.0]])
    params = {"w": w}
    training.rmsprop_step(params, {"w": np.zeros((1, 2))}, lr=0.1)
    g = np.array([[0.5, -1.0]])
    s = (1 - training.RHO) * g * g
    expected = np.array([[1.0, 2.0]]) - 0.1 * g / (np.sqrt(s) + training.EPS)
    assert np.allclose(w.data, expected)


def test_rmsprop_accumulator_persists():
    w = Tensor(np.array([[0.0]]), requires_grad=True)
    params = {"w": w}
    acc = {"w": np.zeros((1, 1))}
    w.grad = np.array([[2.0]])
    training.rmsprop_step(params, acc, lr=0.0)
    training.rmsprop_step(params, acc, lr=0.0)
    # s after two steps: rho*(rho*0 + (1-rho)*4) + (1-rho)*4 = 4*(1 - rho^2)
    assert acc["w"][0, 0] == pytest.approx(4.0 * (1 - training.RHO ** 2))


def test_rmsprop_rejects_nonfinite_gradient():
    w = Tensor(np.array([[0.0]]), requires_grad=True)
    w.grad = np.array([[np.nan]])
    params = {"w": w}
    with pytest.raises(FloatingPointError, match="'w'"):
        training.rmsprop_step(params, {"w": np.zeros((1, 1))}, 0.1)


def test_rmsprop_rejects_an_update_that_overflows():
    """A finite gradient can still step a parameter to inf; the step that
    does so raises, naming the parameter, before the next one is updated."""
    w, v = (Tensor(np.array([[1e308]]), requires_grad=True) for _ in range(2))
    w.grad = v.grad = np.array([[-1.0]])
    params = {"w": w, "v": v}
    with np.errstate(over="ignore"), \
            pytest.raises(FloatingPointError, match="non-finite values in parameter 'w'"):
        training.rmsprop_step(params, {"w": np.zeros((1, 1)), "v": np.zeros((1, 1))}, 1e308)
    assert v.data[0, 0] == 1e308


def test_rmsprop_minimizes_quadratic():
    """Optimizer oracle: f(w) = (w - 3)^2 must approach its minimum."""
    w = Tensor(np.array([[0.0]]), requires_grad=True)
    params = {"w": w}
    acc = {"w": np.zeros((1, 1))}
    for _ in range(500):
        w.grad = 2.0 * (w.data - 3.0)
        training.rmsprop_step(params, acc, lr=0.05)
    assert abs(w.data[0, 0] - 3.0) < 0.05


def test_config_validation():
    with pytest.raises(ValueError):
        training.TrainConfig(tau_start=0.01, tau_end=0.5).validate()
    with pytest.raises(ValueError):
        training.TrainConfig(surrogate_rate=1.0).validate()


def test_kegg_config_rejects_k_below_one():
    """k = 0 fails at validation, before any batch is built; egg ignores k."""
    cfg = training.TrainConfig.from_dict({"model": {"sampler": "kegg", "k": 0}})
    with pytest.raises(ValueError, match="kegg needs k >= 1 neighbors per node, got k=0"):
        cfg.validate()
    training.TrainConfig.from_dict({"model": {"sampler": "egg", "k": 0}}).validate()


def test_config_dict_round_trip():
    cfg = training.TrainConfig(batch_size=64, seed=9,
                               model=model.ModelConfig(hidden=32, sampler="kegg"))
    clone = training.TrainConfig.from_dict(asdict(cfg))
    assert clone == cfg


def test_from_dict_takes_an_int_for_a_float_setting():
    cfg = training.TrainConfig.from_dict({"learning_rate": 1, "weights": {"triplet": 0}})
    assert (cfg.learning_rate, cfg.weights.triplet) == (1, 0)


def tiny_setup(seed=0, n=60):
    ds = dataio.make_two_cluster(n=n, d=4, seed=seed)
    stats = dataio.compute_stats(ds)
    ds = dataio.normalize(ds, stats)
    tr, va = dataio.split(ds, 0.7, seed=seed)
    train_ds, val_ds = ds.subset(tr), ds.subset(va)
    mask = missingness.corrupt_mcar(ds, 0.2, seed=seed)
    return train_ds, val_ds, mask[tr], mask[va]


def tiny_config(max_epochs=3, seed=0, sampler="egg"):
    return training.TrainConfig(
        batch_size=32, max_epochs=max_epochs, patience=50, seed=seed,
        model=model.ModelConfig(hidden=12, prototypes=2, embed_width=4,
                                sampler=sampler, k=3))


def test_train_is_deterministic():
    runs = []
    for _ in range(2):
        result = training.train(tiny_config(), *tiny_setup())
        runs.append(result)
    a = runs[0].params.state_arrays()
    b = runs[1].params.state_arrays()
    for name in a:
        assert np.array_equal(a[name], b[name]), name
    assert runs[0].best_val_loss == runs[1].best_val_loss
    assert [h["val_loss"] for h in runs[0].history] == \
        [h["val_loss"] for h in runs[1].history]


def test_train_different_seeds_differ():
    a = training.train(tiny_config(seed=0), *tiny_setup())
    b = training.train(tiny_config(seed=1), *tiny_setup())
    assert a.best_val_loss != b.best_val_loss


def test_train_improves_over_initialization():
    result = training.train(tiny_config(max_epochs=10), *tiny_setup())
    first = result.history[0]["val_loss"]
    assert result.best_val_loss <= first
    assert result.best_val_loss == pytest.approx(
        min(h["val_loss"] for h in result.history))


def test_train_restores_best_checkpoint(monkeypatch):
    """The returned parameters are the best epoch's snapshot, bit for bit,
    not the last epoch's."""
    real_validation = training.validation_loss
    snapshots = []

    def recording_validation(ds, initial_mask, val_surrogate, params, config, rng):
        snapshots.append(params.snapshot())
        return real_validation(ds, initial_mask, val_surrogate, params, config, rng)

    monkeypatch.setattr(training, "validation_loss", recording_validation)
    result = training.train(tiny_config(max_epochs=6), *tiny_setup())
    assert len(result.history) == len(snapshots) == 6
    assert 0 <= result.best_epoch < len(result.history) - 1
    best = snapshots[result.best_epoch]
    restored = result.params.state_arrays()
    assert restored.keys() == best.keys()
    for name in best:
        assert np.array_equal(restored[name], best[name]), name
    assert any(not np.array_equal(snapshots[-1][name], best[name]) for name in best)


def test_every_validation_draws_the_same_gumbel_noise(monkeypatch):
    real_validation = training.validation_loss
    states = []

    def recording_validation(ds, initial_mask, val_surrogate, params, config, rng):
        states.append(rng.bit_generator.state)
        return real_validation(ds, initial_mask, val_surrogate, params, config, rng)

    monkeypatch.setattr(training, "validation_loss", recording_validation)
    training.train(tiny_config(max_epochs=3), *tiny_setup())
    assert len(states) == 3 and states[1] == states[0] and states[2] == states[0]


def test_train_early_stops_when_no_progress():
    cfg = tiny_config(max_epochs=60, sampler="identity")
    cfg.patience = 2
    result = training.train(cfg, *tiny_setup())
    losses = [h["val_loss"] for h in result.history]
    best_epoch = int(np.argmin(losses))
    assert result.best_epoch == best_epoch
    if len(losses) < cfg.max_epochs:  # stopped early
        # exactly patience + 1 stale epochs follow the last improvement
        assert len(losses) - 1 - best_epoch == cfg.patience + 1
        assert result.stop_reason == "patience"
    else:
        pytest.fail("expected early stop within 60 epochs on this fixture")


def test_train_stop_reason_max_epochs():
    result = training.train(tiny_config(max_epochs=2), *tiny_setup())
    assert len(result.history) == 2
    assert result.stop_reason == "max_epochs"


def test_train_non_finite_step_rolls_back_to_best_snapshot(monkeypatch):
    """A step that raises FloatingPointError ends training: the reason says
    so and the parameters are those of the best validated epoch."""
    real_step, real_validation = training.rmsprop_step, training.validation_loss
    steps, snapshots = [], []

    def failing_step(params, state, lr):
        steps.append(len(steps))
        if len(steps) == 5:  # 42 training rows in batches of 32: epoch 2, first step
            raise FloatingPointError("non-finite gradient for parameter 'w'")
        real_step(params, state, lr)

    def recording_validation(ds, initial_mask, val_surrogate, params, config, rng):
        snapshots.append(params.snapshot())
        return real_validation(ds, initial_mask, val_surrogate, params, config, rng)

    monkeypatch.setattr(training, "rmsprop_step", failing_step)
    monkeypatch.setattr(training, "validation_loss", recording_validation)
    result = training.train(tiny_config(max_epochs=6), *tiny_setup())
    assert result.stop_reason == "non_finite"
    assert len(result.history) == len(snapshots) == 2
    best = snapshots[result.best_epoch]
    restored = result.params.state_arrays()
    assert restored.keys() == best.keys()
    for name in best:
        assert np.array_equal(restored[name], best[name]), name


def test_train_kegg_sampler_runs():
    result = training.train(tiny_config(max_epochs=2, sampler="kegg"), *tiny_setup())
    assert len(result.history) == 2
    assert np.isfinite(result.best_val_loss)


def test_train_history_records_loss_parts():
    result = training.train(tiny_config(max_epochs=2), *tiny_setup())
    rec = result.history[0]
    for key in ("train_total", "train_task", "train_numeric", "train_homophily",
                "val_loss", "tau", "seconds"):
        assert key in rec
    assert rec["tau"] < 0.5  # annealing moved during the first epoch


@pytest.mark.parametrize("prototypes", [0, 2])
def test_kegg_handles_tail_batches_of_at_most_k_nodes(prototypes):
    """Training, validation and ensembling each end on a short batch whose
    graph (rows plus prototypes) has at most k = 5 nodes, down to one."""
    ds = dataio.make_two_cluster(n=84, d=4, seed=3)
    train_rows, val_rows = np.arange(43), np.arange(43, 84)  # tails of 3 and 1 rows
    mask = np.ones(ds.values.shape, dtype=np.int8)
    mask[::3, 1] = 0
    cfg = training.TrainConfig(batch_size=40, max_epochs=2, patience=5,
                               model=model.ModelConfig(hidden=8, prototypes=prototypes,
                                                       embed_width=4, sampler="kegg", k=5))
    trained = training.train(cfg, ds.subset(train_rows), ds.subset(val_rows),
                             mask[train_rows], mask[val_rows])
    assert len(trained.history) == 2
    assert np.isfinite(trained.best_val_loss)
    for rows in (train_rows, val_rows):
        res = ensemble.ensemble_impute(ds.subset(rows), mask[rows], trained.params, 2, 0,
                                       batch_size=40)
        assert np.isfinite(res).all()


def tape_footprint(loss):
    """The recorded nodes reachable from ``loss``, and the bytes of the distinct
    arrays the tape keeps alive with them: the data of every reachable tensor
    but a trainable leaf, and every array a gradient rule closes over."""
    nodes, arrays, stack, seen = 0, {}, [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += bool(node._grad_fns)
        if node._grad_fns or not node.requires_grad:
            arrays[id(node.data)] = node.data
        for fn in node._grad_fns:
            arrays.update((id(c.cell_contents), c.cell_contents) for c in fn.__closure__ or ()
                          if isinstance(c.cell_contents, np.ndarray))
        stack.extend(node._parents)
    return nodes, sum(a.nbytes for a in arrays.values())


def test_one_training_step_records_a_small_tape():
    """One egg step on 40 rows (hidden 16, 4 prototypes, so 44 graph nodes).
    The edge sampler records two nodes and each linear layer one; when the
    sampler was seven ops on two constant tensors and each bias a separate
    add, the same step recorded 54 nodes holding 347848 bytes."""
    ds = dataio.make_two_cluster(n=40, d=4, seed=0)
    ds = dataio.normalize(ds, dataio.compute_stats(ds))
    params = model.ParameterSet(model.ModelConfig(hidden=16, prototypes=4), ds.schema,
                                ds.num_classes, seed=0)
    mask = np.ones(ds.values.shape, dtype=np.int8)
    surr = missingness.surrogate_mask(mask, 0.2, np.random.default_rng(1))
    weights = objectives.LossWeights()
    parts = training._batch_loss(ds, np.arange(40), mask, surr, params, 0.5, "train",
                                 np.random.default_rng(2), weights)
    nodes, nbytes = tape_footprint(objectives.total_loss(parts, weights))
    assert nodes <= 43
    assert nbytes <= 233432
