"""Training loop: surrogate masking, RMSprop, temperature annealing and
validation-based early stopping.

One master seed derives every stream (batch order, surrogate masks,
Gumbel noise, parameter init), so identical configurations produce
bitwise-identical trajectories.
"""

from __future__ import annotations

import time
import typing
from dataclasses import dataclass, field

import numpy as np

from . import missingness, model, objectives
from . import tensor as T


def _build(kind, raw, where):
    """``kind(**raw)``, or a ValueError naming each key ``kind`` has no field for,
    or the first value whose type does not match its field's annotation."""
    types = typing.get_type_hints(kind)
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ValueError(f"unknown {where} setting(s): {', '.join(unknown)}")
    for key, value in raw.items():
        accepted = {int: (int,), float: (int, float), str: (str,)}.get(types[key])
        if accepted and type(value) not in accepted:  # so a bool is neither int nor float
            raise ValueError(f"{where}.{key} must be {types[key].__name__}, got {value!r}")
    return kind(**raw)


@dataclass
class TrainConfig:
    batch_size: int = 300
    learning_rate: float = 1e-4
    tau_start: float = 0.5
    tau_end: float = 0.01
    surrogate_rate: float = 0.2  # share of observed batch cells re-masked
    weights: objectives.LossWeights = field(default_factory=objectives.LossWeights)
    model: model.ModelConfig = field(default_factory=model.ModelConfig)
    max_epochs: int = 300
    patience: int = 20
    seed: int = 0

    def validate(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not (np.isfinite(self.tau_start) and self.tau_start > self.tau_end > 0):
            raise ValueError("need finite tau_start > tau_end > 0")
        if not 0 <= self.surrogate_rate < 1:
            raise ValueError("surrogate_rate must be in [0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        self.weights.validate()
        self.model.validate()

    @classmethod
    def from_dict(cls, raw):
        raw = dict(raw)
        weights = _build(objectives.LossWeights, raw.pop("weights", {}), "train.weights")
        mcfg = _build(model.ModelConfig, raw.pop("model", {}), "train.model")
        return _build(cls, {**raw, "weights": weights, "model": mcfg}, "train")


RHO, EPS = 0.99, 1e-8  # RMSprop accumulator decay, and the floor of its denominator


def rmsprop_step(params, acc, lr):
    """s <- rho s + (1 - rho) g^2;  theta <- theta - lr g / (sqrt(s) + eps), with
    ``acc`` holding each parameter's s; a non-finite gradient or update raises."""
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        s = acc[name]
        s *= RHO
        step = (1 - RHO) * g
        step *= g
        s += step
        np.multiply(lr, g, out=step)
        denom = np.sqrt(s)
        denom += EPS
        step /= denom
        p.data -= step
        if not np.all(np.isfinite(p.data)):
            raise FloatingPointError(f"non-finite values in parameter {name!r}")


def temperature(step, total_steps, tau_start, tau_end):
    """Linear anneal from tau_start to tau_end, clamped afterwards."""
    if total_steps <= 0 or step >= total_steps:
        return tau_end
    frac = step / total_steps
    return tau_start + (tau_end - tau_start) * frac


@dataclass
class TrainedModel:
    params: model.ParameterSet
    config: TrainConfig
    best_val_loss: float
    best_epoch: int
    history: list  # per-epoch dicts
    stop_reason: str  # "patience", "max_epochs" or "non_finite" (rolled back to the best)


def _epoch_batches(n_rows, batch_size, rng):
    order = rng.permutation(n_rows)
    return [order[i:i + batch_size] for i in range(0, n_rows, batch_size)]


def _batch_loss(ds, rows, initial_mask, surr, params, tau, mode, rng, weights, trip_rng=None):
    batch = missingness.preprocess_batch(ds, rows, initial_mask, surr)
    out = model.forward(batch, params, tau, mode, rng)
    return objectives.compute_losses(batch, out, weights, trip_rng)


def validation_loss(ds, initial_mask, val_surrogate, params, config, rng):
    """Total loss over the validation set under a fixed surrogate mask; records no tape."""
    losses, counts = [], []
    with T.no_tape():
        for start in range(0, ds.n_rows, config.batch_size):
            rows = np.arange(start, min(start + config.batch_size, ds.n_rows))
            parts = _batch_loss(ds, rows, initial_mask, val_surrogate[rows], params,
                                config.tau_end, "eval", rng, config.weights)
            losses.append(objectives.total_loss(parts, config.weights).item())
            counts.append(len(rows))
    return float(np.average(losses, weights=counts))


def train(config: TrainConfig, train_ds, val_ds, train_mask, val_mask) -> TrainedModel:
    """Optimize on ``train_ds``; early-stop on validation loss.

    ``train_mask`` / ``val_mask`` are the dataset-level corruption masks
    (1 = observed).  Datasets must already be normalized with training
    statistics.  Every epoch's validation draws the same surrogate mask and
    Gumbel noise, so its losses differ only by the parameters they score.
    A non-finite step rolls back to the best epoch, or raises
    ``FloatingPointError`` when no epoch has completed yet.
    """
    config.validate()
    root = np.random.SeedSequence(config.seed)
    init_seed, order_seed, surr_seed, gumbel_seed, val_seed, trip_seed = root.spawn(6)
    params = model.ParameterSet(config.model, train_ds.schema, train_ds.num_classes,
                                seed=init_seed)
    order_rng = np.random.default_rng(order_seed)
    surr_rng = np.random.default_rng(surr_seed)
    gumbel_rng = np.random.default_rng(gumbel_seed)
    trip_rng = np.random.default_rng(trip_seed)
    val_surrogate = missingness.surrogate_mask(val_mask, config.surrogate_rate,
                                              np.random.default_rng(val_seed))
    val_gumbel_seed = val_seed.spawn(1)[0]
    named = params.named_parameters()
    acc = {name: np.zeros_like(p.data) for name, p in named.items()}

    batches_per_epoch = int(np.ceil(train_ds.n_rows / config.batch_size))
    total_steps = config.max_epochs * batches_per_epoch
    best = {"loss": np.inf, "epoch": -1, "state": params.snapshot()}
    history = []
    step = 0
    stale = 0
    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        epoch_parts = {}  # "total", then objectives.TERMS
        for rows in _epoch_batches(train_ds.n_rows, config.batch_size, order_rng):
            tau = temperature(step, total_steps, config.tau_start, config.tau_end)
            surr = missingness.surrogate_mask(train_mask[rows], config.surrogate_rate, surr_rng)
            try:
                # a diverging step is reported by the finite checks, not by numpy's warnings
                with np.errstate(over="ignore", invalid="ignore"):
                    parts = _batch_loss(train_ds, rows, train_mask, surr, params, tau,
                                        "train", gumbel_rng, config.weights, trip_rng)
                    loss = objectives.total_loss(parts, config.weights)
                    for p in named.values():  # a parameter this step misses takes a zero step
                        p.grad = None
                    loss.backward()
                    rmsprop_step(named, acc, config.learning_rate)
            except FloatingPointError as err:
                if not history:
                    raise FloatingPointError(f"training failed before its first epoch "
                                             f"completed: {err}") from err
                params.load_state_arrays(best["state"])
                return TrainedModel(params, config, best["loss"], best["epoch"], history,
                                    "non_finite")
            for name, term in {"total": loss, **parts}.items():
                epoch_parts[name] = epoch_parts.get(name, 0.0) + term.item()
            step += 1
        for key in epoch_parts:
            epoch_parts[key] /= batches_per_epoch
        val_loss = validation_loss(val_ds, val_mask, val_surrogate, params, config,
                                   np.random.default_rng(val_gumbel_seed))
        record = {"epoch": epoch, "tau": temperature(step, total_steps, config.tau_start,
                                                     config.tau_end),
                  "val_loss": val_loss, "seconds": time.perf_counter() - t0}
        record.update({f"train_{k}": v for k, v in epoch_parts.items()})
        history.append(record)
        if val_loss < best["loss"]:
            best = {"loss": val_loss, "epoch": epoch, "state": params.snapshot()}
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    params.load_state_arrays(best["state"])
    return TrainedModel(params, config, best["loss"], best["epoch"], history,
                        "patience" if stale > config.patience else "max_epochs")
