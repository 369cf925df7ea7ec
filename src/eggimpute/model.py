"""Latent-graph autoencoder forward pass.

Pipeline per batch: a two-layer MLP encodes the preprocessed input, then
each edge-generation block projects the node set, turns pairwise squared
distances into edge probabilities P_ij = exp(-||h_i - h_j||^2), samples a
sparse adjacency with a Gumbel-sigmoid relaxation (independent edges, or
top-k per row for the restricted variant), and runs a degree-normalized
graph convolution with residual and row layer norm.  Learnable prototype
rows are appended to every batch graph and stripped before the output
heads.  The hard adjacency is used in the forward pass; gradients flow
through the relaxed edge values via a straight-through estimator.
"""

from __future__ import annotations

import json
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
        if self.hidden < 1 or self.blocks < 1 or self.prototypes < 0:
            raise ValueError("hidden/blocks must be >= 1 and prototypes >= 0")
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
    projections: list  # per block node-projector output (for regularizers)


def _kaiming(rng, in_dim, out_dim):
    """Kaiming-uniform weights, fan-in."""
    bound = np.sqrt(6.0 / in_dim)
    return rng.uniform(-bound, bound, size=(in_dim, out_dim))


class Linear:
    def __init__(self, in_dim, out_dim, rng, weight_scale=1.0):
        self.w = Tensor(_kaiming(rng, in_dim, out_dim) * weight_scale, requires_grad=True)
        self.b = Tensor(np.zeros((1, out_dim)), requires_grad=True)

    def __call__(self, x):
        return T.matmul(x, self.w) + self.b


class MlpBlock:
    """Two-layer MLP: linear, batch norm, ReLU, linear."""

    def __init__(self, in_dim, hidden, out_dim, rng, out_scale=1.0):
        self.lin1 = Linear(in_dim, hidden, rng)
        self.bn = T.BatchNormState(hidden)
        self.lin2 = Linear(hidden, out_dim, rng, weight_scale=out_scale)

    def __call__(self, x, training):
        return self.lin2(T.relu(T.batch_norm_col(self.lin1(x), self.bn, training)))


class ParameterSet:
    """All trainable tensors plus batch-norm running statistics."""

    def __init__(self, config: ModelConfig, schema, num_classes, seed):
        config.validate()
        self.config = config
        self.num_classes = num_classes
        self.cat_cardinalities = [c.cardinality for c in schema if c.kind == "categorical"]
        self.d_n = sum(1 for c in schema if c.kind == "numerical")
        rng = np.random.default_rng(seed)
        h = config.hidden
        in_dim = self.d_n + len(self.cat_cardinalities) * config.embed_width
        self.embeddings = [Tensor(rng.normal(0, 0.1, size=(card + 1, config.embed_width)),
                                  requires_grad=True)
                           for card in self.cat_cardinalities]
        self.mlp_fp = MlpBlock(in_dim, h, h, rng)
        # small projector output keeps initial pairwise distances O(1),
        # so the edge sampler does not start saturated
        self.mlp_proj = [MlpBlock(h, h, h, rng, out_scale=0.05) for _ in range(config.blocks)]
        self.gcn_w = [Tensor(_kaiming(rng, h, h), requires_grad=True)
                      for _ in range(config.blocks)]
        self.prototypes = (Tensor(rng.normal(0, 0.01, size=(config.prototypes, h)),
                                  requires_grad=True)
                           if config.prototypes > 0 else None)
        out_dim = config.blocks * h
        self.head_num = Linear(out_dim, max(self.d_n, 1), rng)
        self.head_cat = [Linear(out_dim, card, rng) for card in self.cat_cardinalities]
        self.head_task = Linear(out_dim, num_classes, rng)

    def named_parameters(self):
        out = {}
        for i, e in enumerate(self.embeddings):
            out[f"embedding.{i}"] = e
        for prefix, block in [("mlp_fp", self.mlp_fp)] + \
                [(f"mlp_proj.{i}", m) for i, m in enumerate(self.mlp_proj)]:
            out[f"{prefix}.w1"], out[f"{prefix}.b1"] = block.lin1.w, block.lin1.b
            out[f"{prefix}.w2"], out[f"{prefix}.b2"] = block.lin2.w, block.lin2.b
        for i, w in enumerate(self.gcn_w):
            out[f"gcn.{i}.w"] = w
        if self.prototypes is not None:
            out["prototypes"] = self.prototypes
        for prefix, lin in [("head_num", self.head_num), ("head_task", self.head_task)] + \
                [(f"head_cat.{i}", l) for i, l in enumerate(self.head_cat)]:
            out[f"{prefix}.w"], out[f"{prefix}.b"] = lin.w, lin.b
        return out

    def bn_states(self):
        states = {"mlp_fp": self.mlp_fp.bn}
        for i, m in enumerate(self.mlp_proj):
            states[f"mlp_proj.{i}"] = m.bn
        return states

    def check_finite(self):
        for name, p in self.named_parameters().items():
            if not np.all(np.isfinite(p.data)):
                raise FloatingPointError(f"non-finite values in parameter {name!r}")

    def state_arrays(self):
        arrays = {name: p.data for name, p in self.named_parameters().items()}
        for name, bn in self.bn_states().items():
            arrays[f"bn.{name}.mean"] = bn.running_mean
            arrays[f"bn.{name}.var"] = bn.running_var
        return arrays

    def load_state_arrays(self, arrays):
        for name, p in self.named_parameters().items():
            p.data = np.array(arrays[name], dtype=np.float64)
        for name, bn in self.bn_states().items():
            bn.running_mean = np.array(arrays[f"bn.{name}.mean"], dtype=np.float64)
            bn.running_var = np.array(arrays[f"bn.{name}.var"], dtype=np.float64)

    def snapshot(self):
        return {k: v.copy() for k, v in self.state_arrays().items()}


# -- edge sampling ------------------------------------------------------

def log_edge_probabilities(h_graph: Tensor) -> Tensor:
    """log P_ij = -||h_i - h_j||^2; nearer nodes are likelier neighbors."""
    return T.scale(T.pairwise_sq_dist(h_graph), -1.0)


def _gumbel(rng, shape):
    u = rng.random(shape)
    u = np.clip(u, 1e-12, 1 - 1e-12)
    return -np.log(-np.log(u))


def sample_adjacency_egg(log_probs: Tensor, tau: float, rng, k=None) -> GraphSample:
    """Gumbel-sigmoid edges over a candidate set, then OR-symmetrization.

    Candidates are the strict upper triangle, each kept when its relaxed
    value passes 0.5 (independent edges), or with ``k`` each node's k top
    perturbed logits (Gumbel-top-k, the restricted kEGG sampler), all kept.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    m = log_probs.shape[0]
    if log_probs.shape != (m, m):
        raise ValueError("log_probs must be square")
    if k is not None and not 1 <= k < m:
        raise ValueError(f"k must satisfy 1 <= k < m, got k={k}, m={m}")
    eye = np.eye(m)
    logits = T.scale(log_probs + Tensor(_gumbel(rng, (m, m))), 1.0 / tau)
    if k is None:
        candidates = np.triu(np.ones((m, m)), k=1)
    else:
        top = np.argpartition(-np.where(eye, -np.inf, logits.data), k - 1, axis=1)[:, :k]
        candidates = np.zeros((m, m))
        candidates[np.repeat(np.arange(m), k), top.ravel()] = 1.0
    relaxed = T.mul(T.sigmoid(logits), Tensor(candidates))
    chosen = (relaxed.data > 0.5) * candidates if k is None else candidates
    hard = np.minimum(chosen + chosen.T + eye, 1.0)
    adjacency = T.straight_through(relaxed + T.transpose(relaxed) + Tensor(eye), hard)
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

def forward(batch, params: ParameterSet, tau, mode, rng, adjacency_override=None):
    """Full forward pass for one batch.

    ``mode`` selects batch-norm statistics ('train' uses batch stats,
    'eval' the running ones); edge sampling stays stochastic in both.
    ``adjacency_override`` freezes each block's adjacency to a constant
    (no gradient through the sampler).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    training = mode == "train"
    cfg = params.config
    n = batch.x.shape[0]
    h = params.mlp_fp(batch.x, training)
    if params.prototypes is not None:
        h = T.concat_rows([h, params.prototypes])
    m = h.shape[0]

    samples, block_outs, projections = [], [], []
    for blk in range(cfg.blocks):
        if adjacency_override is not None:
            sample = constant_sample(adjacency_override[blk])
        elif cfg.sampler == "identity":
            sample = constant_sample(np.eye(m))
        else:
            hg = params.mlp_proj[blk](h, training)
            projections.append(hg)
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
    return ForwardOutput(numeric_pred, cat_logits, task_logits, samples, projections)


# -- checkpointing ------------------------------------------------------

def save_checkpoint(path, params: ParameterSet, extra=None):
    meta = {"version": CHECKPOINT_VERSION,
            "config": asdict(params.config),
            "num_classes": params.num_classes,
            "cat_cardinalities": params.cat_cardinalities,
            "d_n": params.d_n,
            "extra": extra or {}}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **params.state_arrays())


def load_checkpoint(path, schema):
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        config = ModelConfig(**meta["config"])
        params = ParameterSet(config, schema, meta["num_classes"], seed=0)
        params.load_state_arrays({k: data[k] for k in data.files if k != "__meta__"})
    return params, meta["extra"]
