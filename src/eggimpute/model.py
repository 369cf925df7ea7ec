"""Latent-graph autoencoder forward pass.

Pipeline per batch: each categorical cell is embedded (a masked one as its
column's missing token) and a two-layer MLP encodes each row, then
each edge-generation block projects the node set, turns pairwise squared
distances into edge scores P_ij = exp(-||h_i - h_j||^2), links each pair
independently with probability 1 - exp(-P_ij) (or the top k per row, for
kEGG) through a Gumbel-sigmoid relaxation, and runs a degree-normalized
graph convolution with residual and row layer norm.  Learnable prototype
rows are appended to every batch graph and stripped before the output
heads.  The hard adjacency is used in the forward pass; gradients flow
through the relaxed edge values via a straight-through estimator.  Each
sample is two tape nodes with hand-written rules, built in place: the
logits, the relaxed values and the hard graph are one m x m array each,
and the tape keeps the relaxed values alone.  Each linear layer's bias
rides in its matmul's node.
``forward`` is two stages: ``encode``, row by row up to block 0's
projector, then ``propagate``, over the batch graph; ensembled imputation
calls the two itself, so it encodes each row once per call.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .tensor import Tensor

CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    hidden: int = 300
    blocks: int = 1  # stacked edge-generation blocks
    prototypes: int = 10
    embed_width: int = 16
    sampler: str = "egg"  # egg | kegg | identity
    k: int = 5  # neighbors per node for the restricted sampler

    def validate(self):
        if self.sampler not in ("egg", "kegg", "identity"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if min(self.hidden, self.blocks, self.embed_width) < 1 or self.prototypes < 0:
            raise ValueError("hidden/blocks/embed_width must be >= 1 and prototypes >= 0")
        if self.sampler == "kegg" and self.k < 1:
            raise ValueError(f"kegg needs k >= 1 neighbors per node, got k={self.k}")


@dataclass
class GraphSample:
    relaxed: Tensor  # differentiable relaxed edge values (candidate set only)
    adjacency: Tensor  # straight-through hard adjacency, m x m
    hard: np.ndarray  # binary adjacency with unit diagonal


@dataclass
class ForwardOutput:
    numeric_pred: Tensor  # n x d_n
    cat_logits: list  # per categorical column, n x C_d
    task_logits: Tensor  # n x num_classes
    samples: list  # GraphSample per block
    projection: Tensor | None  # block 0's projector output; None when no sampler runs


def _kaiming(rng, in_dim, out_dim):
    """Kaiming-uniform weights, fan-in."""
    bound = np.sqrt(6.0 / in_dim)
    return rng.uniform(-bound, bound, size=(in_dim, out_dim))


class Linear:
    def __init__(self, w, b):
        self.w, self.b = w, b

    def __call__(self, x):
        return T.matmul(x, self.w, bias=self.b)


class MlpBlock:
    """Two-layer MLP: linear, batch norm, ReLU, linear."""

    def __init__(self, lin1, bn, lin2):
        self.lin1, self.bn, self.lin2 = lin1, bn, lin2

    def __call__(self, x, training):
        return self.lin2(T.relu(T.batch_norm_col(self.lin1(x), self.bn, training)))


class ParameterSet:
    """All trainable tensors plus batch-norm running statistics, each registered
    in ``table`` under its checkpoint name by the statement that creates it."""

    def __init__(self, config: ModelConfig, schema, num_classes, seed):
        config.validate()
        self.config = config
        self.num_classes = num_classes
        self.table = {}  # name -> trainable Tensor or BatchNormState, in creation order
        cat_cardinalities = [c.cardinality for c in schema if c.kind == "categorical"]
        d_n = sum(1 for c in schema if c.kind == "numerical")
        rng = np.random.default_rng(seed)
        h = config.hidden
        in_dim = d_n + len(cat_cardinalities) * config.embed_width
        self.embeddings = [self._tensor(f"embedding.{i}",
                                        rng.normal(0, 0.1, size=(card + 1, config.embed_width)))
                           for i, card in enumerate(cat_cardinalities)]
        self.mlp_fp = self._mlp("mlp_fp", in_dim, h, rng)
        # small projector output keeps initial pairwise distances O(1),
        # so the edge sampler does not start saturated
        self.mlp_proj = [self._mlp(f"mlp_proj.{i}", h, h, rng, out_scale=0.05)
                         for i in range(config.blocks)]
        self.gcn_w = [self._tensor(f"gcn.{i}.w", _kaiming(rng, h, h)) for i in range(config.blocks)]
        self.prototypes = (self._tensor("prototypes",
                                        rng.normal(0, 0.01, size=(config.prototypes, h)))
                           if config.prototypes > 0 else None)
        out_dim = config.blocks * h
        self.head_num = self._linear("head_num", out_dim, max(d_n, 1), rng)
        self.head_cat = [self._linear(f"head_cat.{i}", out_dim, card, rng)
                         for i, card in enumerate(cat_cardinalities)]
        self.head_task = self._linear("head_task", out_dim, num_classes, rng)

    def _tensor(self, name, data):
        self.table[name] = Tensor(data, requires_grad=True)
        return self.table[name]

    def _linear(self, name, in_dim, out_dim, rng, weight_scale=1.0, suffix=""):
        w = self._tensor(f"{name}.w{suffix}", _kaiming(rng, in_dim, out_dim) * weight_scale)
        return Linear(w, self._tensor(f"{name}.b{suffix}", np.zeros((1, out_dim))))

    def _mlp(self, name, in_dim, h, rng, out_scale=1.0):
        lin1 = self._linear(name, in_dim, h, rng, suffix="1")
        self.table[f"bn.{name}"] = bn = T.BatchNormState(h)
        return MlpBlock(lin1, bn, self._linear(name, h, h, rng, out_scale, suffix="2"))

    def named_parameters(self):
        """The table's trainable tensors, by checkpoint name."""
        return {name: p for name, p in self.table.items() if isinstance(p, Tensor)}

    def state_arrays(self):
        """Every trainable array, then each batch norm's running mean and variance."""
        arrays = {name: p.data for name, p in self.named_parameters().items()}
        for name, bn in self.table.items():
            if isinstance(bn, T.BatchNormState):
                arrays[f"{name}.mean"], arrays[f"{name}.var"] = bn.running_mean, bn.running_var
        return arrays

    def load_state_arrays(self, arrays):
        for name, target in self.state_arrays().items():
            target[...] = arrays[name]

    def snapshot(self):
        return {k: v.copy() for k, v in self.state_arrays().items()}


# -- edge sampling ------------------------------------------------------

def log_edge_probabilities(h_graph: Tensor) -> Tensor:
    """log P_ij = -||h_i - h_j||^2; nearer nodes are likelier neighbors."""
    return T.scale(T.pairwise_sq_dist(h_graph), -1.0)


def _gumbel(rng, shape):
    """-log(-log(u)) for u uniform, clipped to [1e-12, 1 - 1e-12]; one array."""
    u = rng.random(shape)
    np.clip(u, 1e-12, 1 - 1e-12, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    return np.negative(u, out=u)


def sample_adjacency_egg(log_probs: Tensor, tau: float, rng, k=None) -> GraphSample:
    """Gumbel-sigmoid edges over a candidate set, then OR-symmetrization.

    Candidates are the strict upper triangle, each kept when its relaxed
    value passes 0.5, that is when log P_ij plus one Gumbel draw is positive:
    independently, with probability 1 - exp(-P_ij) whatever ``tau`` is.  With
    ``k``, they are each node's k top perturbed logits (Gumbel-top-k, the
    restricted kEGG sampler), all kept.
    Two tape nodes: ``relaxed``, s = sigma((log P + Gumbel) / tau) on the
    candidates and 0 elsewhere, gives ``log_probs`` g * s * (1 - s) / tau;
    ``adjacency`` holds ``hard`` (straight-through) and gives ``relaxed`` g,
    then g.T.  The logits, s and the hard graph are each built in one m x m
    array, and the tape keeps s alone.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    m = log_probs.shape[0]
    if log_probs.shape != (m, m):
        raise ValueError("log_probs must be square")
    if k is not None and not 1 <= k < m:
        raise ValueError(f"k must satisfy 1 <= k < m, got k={k}, m={m}")
    c = 1.0 / tau
    s = _gumbel(rng, (m, m))
    np.add(log_probs.data, s, out=s)
    s *= c  # the logits
    if k is None:
        candidates = np.triu(np.ones((m, m), dtype=bool), k=1)
    else:
        order = np.negative(s)
        np.fill_diagonal(order, np.inf)
        top = np.argpartition(order, k - 1, axis=1)[:, :k]
        del order
        candidates = np.zeros((m, m), dtype=bool)
        candidates[np.repeat(np.arange(m), k), top.ravel()] = True
    np.clip(s, -500, 500, out=s)  # T.sigmoid's values, in place
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    s *= candidates
    relaxed = T._make(s, (log_probs, lambda g: g * s * (1.0 - s) * c))
    chosen = s > 0.5 if k is None else candidates
    hard = (chosen | chosen.T).astype(np.float64)
    np.fill_diagonal(hard, 1.0)
    adjacency = T._make(hard, (relaxed, lambda g: g), (relaxed, lambda g: g.T))
    return GraphSample(relaxed, adjacency, hard)


def sample_adjacency_kegg(log_probs: Tensor, tau: float, k: int, rng) -> GraphSample:
    """``sample_adjacency_egg`` with ``k``, under its earlier name and argument
    order; ``forward`` calls ``sample_adjacency_egg`` for both samplers."""
    return sample_adjacency_egg(log_probs, tau, rng, k)


def constant_sample(adjacency: np.ndarray) -> GraphSample:
    """Frozen adjacency with no gradient path (for ablations and checks)."""
    a = np.asarray(adjacency, dtype=np.float64)
    return GraphSample(Tensor(np.zeros_like(a)), Tensor(a.copy()), a.copy())


# -- graph convolution --------------------------------------------------

def gcn_update(h: Tensor, sample: GraphSample, weight: Tensor) -> Tensor:
    """Symmetric-normalized convolution with residual and row layer norm."""
    hard = sample.hard
    if not np.array_equal(hard, hard.T):
        raise ValueError("adjacency must be symmetric")
    if not np.all(np.diag(hard) == 1):
        raise ValueError("adjacency must have a unit diagonal")
    deg = hard.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    norm = Tensor(np.outer(inv_sqrt, inv_sqrt))
    msg = T.matmul(T.matmul(T.mul(sample.adjacency, norm), h), weight)
    return T.layer_norm_row(msg + h)


# -- forward pass -------------------------------------------------------

@dataclass
class Encoding:
    """The row-wise stage's output: ``n`` batch rows, then the prototype rows."""
    h: Tensor  # m x hidden
    projection: Tensor | None  # block 0's projector output on h, when its sampler runs
    n: int

    def take(self, positions):
        """The encoding of the batch rows at ``positions``, the prototype rows kept."""
        idx = np.concatenate([positions, np.arange(self.n, self.h.shape[0])])
        projection = None if self.projection is None else T.gather_rows(self.projection, idx)
        return Encoding(T.gather_rows(self.h, idx), projection, len(positions))


def _training(mode):
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    return mode == "train"


def encode(batch, params: ParameterSet, mode) -> Encoding:
    """The row-wise stage: the numeric columns and each categorical column's
    embedding row (a masked cell's is its missing token's, index C_d) into
    the input MLP, the prototype rows appended, and block 0's projector
    unless its graph is the identity.  In 'eval' mode each row's output
    depends on that row alone."""
    training = _training(mode)
    parts = [Tensor(batch.inputs[:, batch.numeric_cols])] if batch.numeric_cols else []
    for pos, j in enumerate(batch.categorical_cols):
        col, table = batch.schema[j], params.embeddings[pos]
        if table.shape != (col.cardinality + 1, params.config.embed_width):
            raise ValueError(f"embedding table for {col.name!r} has shape {table.shape}, "
                             f"expected {(col.cardinality + 1, params.config.embed_width)}")
        parts.append(T.gather_rows(table, batch.inputs[:, j].astype(np.int64)))
    x = T.concat_cols(parts) if len(parts) > 1 else parts[0]
    h = params.mlp_fp(x, training)
    if params.prototypes is not None:
        h = T.concat_rows([h, params.prototypes])
    project = params.config.sampler != "identity"
    return Encoding(h, params.mlp_proj[0](h, training) if project else None, x.shape[0])


def propagate(enc: Encoding, params: ParameterSet, tau, mode, rng):
    """The batch-graph stage: each block's sampler and graph convolution over
    all of ``enc``'s rows, then the heads on its batch rows."""
    training = _training(mode)
    cfg = params.config
    h, n, m = enc.h, enc.n, enc.h.shape[0]
    samples, block_outs = [], []
    for blk in range(cfg.blocks):
        if cfg.sampler == "identity":
            sample = constant_sample(np.eye(m))
        else:
            hg = enc.projection if blk == 0 else params.mlp_proj[blk](h, training)
            log_p = log_edge_probabilities(hg)
            # kegg caps k (>= 1 by validation) at m - 1 for short tail batches;
            # a one-node batch (k == 0) keeps the identity graph, no Gumbel noise
            k = min(cfg.k, m - 1) if cfg.sampler == "kegg" else None
            sample = (constant_sample(np.eye(1)) if k == 0
                      else sample_adjacency_egg(log_p, tau, rng, k))
        samples.append(sample)
        h = gcn_update(h, sample, params.gcn_w[blk])
        block_outs.append(T.slice_rows(h, 0, n))

    h_out = T.concat_cols(block_outs) if len(block_outs) > 1 else block_outs[0]
    numeric_pred = params.head_num(h_out)
    cat_logits = [head(h_out) for head in params.head_cat]
    task_logits = params.head_task(h_out)
    return ForwardOutput(numeric_pred, cat_logits, task_logits, samples, enc.projection)


def forward(batch, params: ParameterSet, tau, mode, rng):
    """Full forward pass for one batch: ``propagate(encode(...))``.

    ``mode`` selects batch-norm statistics ('train' uses batch stats,
    'eval' the running ones); edge sampling stays stochastic in both.
    """
    return propagate(encode(batch, params, mode), params, tau, mode, rng)


# -- checkpointing ------------------------------------------------------

def save_checkpoint(path, params: ParameterSet):
    """The parameter arrays, and the model config and class count to rebuild them."""
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(params.config),
            "num_classes": params.num_classes}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **params.state_arrays())


def load_checkpoint(path, schema):
    """The parameters a checkpoint holds, each array checked against ``schema``'s table;
    a ValueError naming ``path`` when ``save_checkpoint`` did not write it."""
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
        version = meta["version"]
        if version == CHECKPOINT_VERSION:
            params = ParameterSet(ModelConfig(**meta["config"]), schema, meta["num_classes"],
                                  seed=0)
    except (AttributeError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as err:
        raise ValueError(f"{path} is not an eggimpute checkpoint ({type(err).__name__}: {err}); "
                         "rerun `eggimpute train`") from err
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    needed = {k: v.shape for k, v in params.state_arrays().items()}
    for name in [*needed, *arrays]:
        found = arrays[name].shape if name in arrays else None
        if found != needed.get(name):
            raise ValueError(f"checkpoint array {name!r} has shape {found}, but this table "
                             f"needs {needed.get(name)}; rerun `eggimpute train` on this table")
    params.load_state_arrays(arrays)
    return params
