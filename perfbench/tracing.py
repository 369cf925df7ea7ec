"""Outside-in span tracing for the eggimpute pipeline.

The tracer replaces module attributes (``tensor.matmul``,
``model.forward``, ``evaluation.rf_fit`` ...) with wrappers that record
one span per call: id, parent span, cell id, name, start and end.
eggimpute calls its layers through module attributes (``T.matmul``,
``model.forward``) and class attributes (``Tensor.backward``,
``MlpBlock.__call__``), so wrapping them from outside sees the calls
made deep inside ``cli.run_single`` without touching ``src/``.
Spans stay in memory until the run ends; ``uninstall`` restores every
original attribute.
"""

from __future__ import annotations

import functools
import statistics
import time

from eggimpute import (baselines, cli, dataio, ensemble, evaluation, missingness, model,
                       objectives, tensor, training)

# Public tensor ops that src/ calls.  The operator sugar on Tensor
# (__add__, __mul__, ...) calls these module functions, so it is covered.
TENSOR_OPS = ("matmul", "add", "sub", "mul", "scale", "add_scalar", "exp", "log", "relu",
              "sigmoid", "reduce_sum", "layer_norm_row", "pairwise_sq_dist", "transpose",
              "concat_cols", "concat_rows", "slice_rows", "gather_rows", "straight_through",
              "batch_norm_col")


def _matmul_flops(args, kwargs, result):
    a, b = args[0], args[1]
    return {"tensor.matmul_flops": 2.0 * a.shape[0] * a.shape[1] * b.shape[1]}


def _edge_density(args, kwargs, result):
    m = result.hard.shape[0]
    return {"model.edge_density": (result.hard.sum() - m) / max(m * (m - 1), 1)}


def _epoch_seconds(args, kwargs, result):
    return {"training.epoch": [rec["seconds"] for rec in result.history]}


def _ensemble_passes(args, kwargs, result):
    n_passes = kwargs["n_passes"] if "n_passes" in kwargs else args[3]
    return {"ensemble.passes": n_passes}


def _forest_nodes(args, kwargs, result):
    nodes = 0
    stack = list(result.trees)
    while stack:
        node = stack.pop()
        nodes += 1
        if node.feature is not None:
            stack.extend((node.left, node.right))
    return {"evaluation.rf_nodes": nodes}


def default_targets():
    """(owner, attribute, span name, measure) for every traced call site.

    ``measure(args, kwargs, result)`` returns extra per-call values
    (counts the layer does not time, such as flops or forest nodes).
    """
    targets = [(tensor, op, f"tensor.{op}", _matmul_flops if op == "matmul" else None)
               for op in TENSOR_OPS]
    targets += [
        (tensor.Tensor, "backward", "tensor.backward", None),
        (model, "forward", "model.forward", None),
        (model.MlpBlock, "__call__", "model.mlp", None),
        (model, "sample_adjacency_egg", "model.sampler", _edge_density),
        (model, "sample_adjacency_kegg", "model.sampler", _edge_density),
        (model, "gcn_update", "model.gcn", None),
        (model, "save_checkpoint", "model.checkpoint_io", None),
        (model, "load_checkpoint", "model.checkpoint_io", None),
        (objectives, "compute_losses", "objectives.compute_losses", None),
        (objectives, "triplet_regularizer", "objectives.triplet", None),
        (objectives, "homophily_loss", "objectives.homophily", None),
        (training, "train", "training.train", _epoch_seconds),
        (training, "rmsprop_step", "training.rmsprop", None),
        (training, "validation_loss", "training.validation", None),
        (ensemble, "ensemble_impute", "ensemble.impute", _ensemble_passes),
        (missingness, "corrupt", "missingness.corrupt", None),
        (missingness, "preprocess_batch", "missingness.preprocess_batch", None),
        (missingness, "surrogate_mask", "missingness.surrogate_mask", None),
        (missingness, "save_mask", "missingness.mask_io", None),
        (missingness, "load_mask", "missingness.mask_io", None),
        (dataio, "load_csv", "dataio.load_csv", None),
        (dataio, "write_csv", "dataio.write_csv", None),
        (dataio, "split", "dataio.prepare", None),
        (dataio, "compute_stats", "dataio.prepare", None),
        (dataio, "normalize", "dataio.prepare", None),
        (baselines, "knn_impute", "baselines.knn", None),
        (baselines, "mean_impute", "baselines.mean", None),
        (evaluation, "rf_fit", "evaluation.rf_fit", _forest_nodes),
        (evaluation, "rf_predict", "evaluation.rf_predict", None),
        (evaluation, "one_hot_features", "evaluation.one_hot", None),
        (evaluation, "rmse", "evaluation.metrics", None),
        (evaluation, "mae", "evaluation.metrics", None),
        (evaluation, "cat_accuracy", "evaluation.metrics", None),
        (evaluation, "count_of_wins", "evaluation.aggregate", None),
        (evaluation, "unified_average_ranking", "evaluation.aggregate", None),
        (cli, "main", "cli.main", None),
        (cli, "run_single", "cli.run_single", None),
        (cli, "_append_result", "cli.results_io", None),
        (cli, "_read_results", "cli.results_io", None),
    ]
    return targets


class Span:
    __slots__ = ("id", "parent", "cell", "name", "start", "end")

    def __init__(self, id, parent, cell, name, start, end):
        self.id, self.parent, self.cell, self.name = id, parent, cell, name
        self.start, self.end = start, end

    def as_list(self):
        return [self.id, self.parent, self.cell, self.name, self.start, self.end]


class Tracer:
    """Records spans and per-call measures while installed."""

    def __init__(self, targets=None):
        self.targets = default_targets() if targets is None else targets
        self.spans = []
        self.measures = []  # (cell, name, value)
        self.cell = None
        self._stack = []
        self._next_id = 0
        self._saved = []
        self.missing = []  # targets the program no longer defines

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, measure in self.targets:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, measure))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, measure):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, self.cell, name, start, end))
            if measure is not None:
                for key, value in measure(args, kwargs, result).items():
                    self.measures.append((self.cell, key, value))
            return result

        traced.__perfbench_traced__ = True
        return traced


def is_traced(obj):
    return getattr(obj, "__perfbench_traced__", False)


def self_times(spans):
    """Map span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


# -- per-layer metrics ----------------------------------------------------

LAYERS = ("tensor", "model", "objectives", "training", "ensemble", "missingness", "dataio",
          "baselines", "evaluation", "cli")
# spans that only frame a cell; their self time is reported as cli.cell_self_s
_FRAME_SPANS = ("cli.main", "cli.run_single")
_EXTRA = {
    "tensor.matmul_flops": "flop", "tensor.op_calls_per_step": "count",
    "model.edge_density": "ratio",
    "training.epoch_s": "s", "training.epoch_tail_s": "s", "training.epoch_tail_pct": "%",
    "training.epoch_samples": "count",
    "ensemble.passes": "count", "evaluation.rf_nodes": "count",
    "cli.cell_self_s": "s", "trace.overhead_ratio": "ratio", "trace.spans": "count",
}


def _calls_name(span_name):
    return "training.steps" if span_name == "training.rmsprop" else f"{span_name}_calls"


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in dict.fromkeys(t[2] for t in default_targets()):
        if name not in _FRAME_SPANS:
            units[f"{name}_s"] = "s"
            units[_calls_name(name)] = "count"
    for layer in LAYERS[:-1]:
        units[f"{layer}.self_s"] = "s"
    units.update(_EXTRA)
    return units


def tail_percentile(samples, beyond=10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``, or ``(None, None)`` when there are
    too few samples for any percentile to have that many beyond it.
    """
    values = sorted(samples)
    n = len(values)
    if n <= beyond:
        return None, None
    return values[n - beyond - 1], 100.0 * (n - beyond) / n


def layer_metrics(tracer, cells, overhead_ratio):
    """Per-cell averages of span times, counts and measures over ``cells``."""
    cells = set(cells)
    k = max(len(cells), 1)
    spans = [s for s in tracer.spans if s.cell in cells]
    units = per_layer_units()
    out = {name: 0.0 for name in units}
    own = self_times(spans)
    for s in spans:
        duration = s.end - s.start
        layer = s.name.split(".", 1)[0]
        if layer == "cli":
            out["cli.cell_self_s"] += own[s.id] / k
        else:
            out[f"{layer}.self_s"] += own[s.id] / k
        if s.name not in _FRAME_SPANS:
            out[f"{s.name}_s"] += duration / k
            out[_calls_name(s.name)] += 1.0 / k

    by_id = {s.id: s for s in spans}

    def in_training_step(s):
        node = by_id.get(s.parent)
        while node is not None:
            if node.name == "training.validation":
                return False
            if node.name == "training.train":
                return True
            node = by_id.get(node.parent)
        return False

    step_ops = sum(1 for s in spans if s.name.startswith("tensor.")
                   and s.name != "tensor.backward" and in_training_step(s))
    steps = out["training.steps"] * k
    out["tensor.op_calls_per_step"] = step_ops / steps if steps else 0.0

    densities, epochs = [], []
    for cell, key, value in tracer.measures:
        if cell not in cells:
            continue
        if key == "model.edge_density":
            densities.append(value)
        elif key == "training.epoch":
            epochs.extend(value)
        else:
            out[key] += value / k
    out["model.edge_density"] = sum(densities) / len(densities) if densities else 0.0
    if epochs:
        out["training.epoch_s"] = statistics.median(epochs)
        tail, pct = tail_percentile(epochs)
        out["training.epoch_tail_s"] = tail or 0.0
        out["training.epoch_tail_pct"] = pct or 0.0
    out["training.epoch_samples"] = float(len(epochs))
    out["trace.spans"] = len(spans) / k
    out["trace.overhead_ratio"] = overhead_ratio
    return out
