import gc
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import mixed_dataset
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
    arrays the tape keeps alive with them: every array a gradient rule closes
    over, and the data of every tensor one closes over."""
    nodes, arrays, stack, seen = 0, {}, [loss._node], set()
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        nodes += bool(node.rules)
        for rule in filter(None, node.rules):
            for cell in rule.__closure__ or ():
                value = cell.cell_contents
                value = value.data if isinstance(value, Tensor) else value
                if isinstance(value, np.ndarray):
                    arrays[id(value)] = value
        stack.extend(node.parents)
    return nodes, sum(a.nbytes for a in arrays.values())


def test_a_parameter_set_is_freed_without_the_cycle_collector():
    """After a training step, no reference cycle holds a parameter or its
    gradient: with the collector off, deleting the set frees every array."""
    gc.disable()
    try:
        ds = dataio.make_two_cluster(n=40, d=4, seed=0)
        params = model.ParameterSet(model.ModelConfig(hidden=8, prototypes=2), ds.schema,
                                    ds.num_classes, seed=0)
        named = params.named_parameters()
        mask = np.ones(ds.values.shape, dtype=np.int8)
        surr = missingness.surrogate_mask(mask, 0.2, np.random.default_rng(1))
        weights = objectives.LossWeights()
        parts = training._batch_loss(ds, np.arange(40), mask, surr, params, 0.5, "train",
                                     np.random.default_rng(2), weights)
        objectives.total_loss(parts, weights).backward()
        training.rmsprop_step(named, {k: np.zeros_like(p.data) for k, p in named.items()},
                              1e-3)
        probes = [weakref.ref(a) for p in named.values() for a in (p.data, p.grad)]
        del params, named, parts
        assert all(probe() is None for probe in probes)
    finally:
        gc.enable()


def test_one_training_step_records_a_small_tape():
    """One egg step on 40 rows (hidden 16, 4 prototypes, so 44 graph nodes).
    The edge sampler records two nodes and each linear layer one; when the
    sampler was seven ops on two constant tensors and each bias a separate
    add, the same step recorded 54 nodes holding 347848 bytes.  The rules
    close over the arrays they read and no tensor, so the tape keeps 127456
    bytes, parameters included; when each node held its operand tensors, and
    with them every output, it kept 233432."""
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
    assert nbytes <= 127456


@pytest.mark.parametrize("cell, term, head", [((0, 0), "categorical", "head_cat."),
                                              ((0, 3), "numeric", "head_num.")],
                         ids=["no_categorical_cell", "no_numeric_cell"])
def test_a_head_whose_batch_masks_none_of_its_cells_takes_a_zero_step(small_mixed_dataset,
                                                                      cell, term, head):
    """Step 1 masks a cell of each kind, step 2 only ``cell``.  Step 2's ``term`` is
    then 0, and its head must not move: when that term was a detached 0, the head
    was left off the tape and the step replayed its gradient from step 1
    (``head_num.w`` moved by 0.0071 on a 40-row table)."""
    ds = small_mixed_dataset  # 3 numeric columns, then one categorical
    params = model.ParameterSet(model.ModelConfig(hidden=8, prototypes=2), ds.schema,
                                ds.num_classes, seed=0)
    named = params.named_parameters()
    acc = {name: np.zeros_like(p.data) for name, p in named.items()}
    rows, weights = np.arange(10), objectives.LossWeights()
    mask = np.ones(ds.values.shape, dtype=np.int8)
    for step, cells in enumerate([[(0, 0), (0, 3)], [cell]]):
        surr = np.ones((len(rows), ds.n_cols), dtype=np.int8)
        surr[tuple(zip(*cells))] = 0
        before = {name: p.data.copy() for name, p in named.items()}
        parts = training._batch_loss(ds, rows, mask, surr, params, 0.5, "train",
                                     np.random.default_rng(step), weights)
        objectives.total_loss(parts, weights).backward()
        training.rmsprop_step(named, acc, 1e-2)
    assert parts[term].item() == 0.0
    idle = [name for name in named if name.startswith(head)]
    assert idle and all(np.array_equal(named[name].data, before[name]) for name in idle)
    assert not np.array_equal(named["mlp_fp.w1"].data, before["mlp_fp.w1"])


@settings(max_examples=20)
@given(sampler=st.sampled_from(["egg", "kegg", "identity"]), mixed=st.booleans(),
       batch_size=st.integers(1, 16), triplet=st.sampled_from([0.0, 0.1]),
       prototypes=st.sampled_from([0, 2]), train_rows=st.integers(16, 17))
@example(sampler="kegg", mixed=False, batch_size=16, triplet=0.0, prototypes=0, train_rows=17)
def test_no_step_applies_the_gradient_of_another_step(sampler, mixed, batch_size, triplet,
                                                      prototypes, train_rows):
    """Each step's RMSprop update reads only gradients that step's ``backward``
    wrote: a leaf the backward does not reach keeps the array of an earlier step,
    so a non-None ``grad`` that is still the array recorded just before the
    backward is a stale one.  The example ends each epoch on a one-row kegg
    batch with no prototype, whose identity graph never reaches the projector."""
    ds = mixed_dataset() if mixed else dataio.make_two_cluster(n=24, d=3, seed=1)
    mask = missingness.corrupt_mcar(ds, 0.2, seed=2)
    cfg = training.TrainConfig(batch_size=batch_size, max_epochs=2, patience=5,
                               learning_rate=1e-3, weights=objectives.LossWeights(triplet=triplet),
                               model=model.ModelConfig(hidden=8, prototypes=prototypes,
                                                       embed_width=2, sampler=sampler, k=3))
    named, before = {}, {}  # the parameters, and each one's grad just before a backward
    real_backward, real_step = Tensor.backward, training.rmsprop_step

    def backward(loss):
        # the first backward precedes the first step, when every grad is still None
        before.update((name, p.grad) for name, p in named.items())
        real_backward(loss)

    def step(params, acc, lr):
        named.update(params)
        stale = [name for name, p in params.items()
                 if p.grad is not None and p.grad is before.get(name)]
        assert not stale, f"a step reused an earlier step's gradient of {stale}"
        real_step(params, acc, lr)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tensor, "backward", backward)
        mp.setattr(training, "rmsprop_step", step)
        training.train(cfg, ds.subset(np.arange(train_rows)),
                       ds.subset(np.arange(train_rows, 24)), mask[:train_rows], mask[train_rows:])
