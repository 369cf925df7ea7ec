import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import central_difference, make_batch, rel_error
from eggimpute import model, objectives
from eggimpute import tensor as T
from eggimpute.tensor import Tensor


def np_softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_numeric_loss_hand_example():
    truth = np.array([[1.0, 2.0], [3.0, 4.0]])
    pred = Tensor([[1.5, 2.0], [3.0, 3.0]])
    mask = np.array([[0, 1], [1, 0]])  # cells (0,0) and (1,1) are targets
    loss = objectives.numeric_imputation_loss(truth, pred, mask)
    assert loss.data[0, 0] == pytest.approx((0.25 + 1.0) / 2)


def test_numeric_loss_ignores_observed_and_unknown_cells():
    truth = np.array([[1.0, np.nan]])
    pred = Tensor([[100.0, 100.0]])
    mask = np.array([[1, 0]])  # (0,0) observed, (0,1) masked but unknown truth
    loss = objectives.numeric_imputation_loss(truth, pred, mask)
    assert loss.data[0, 0] == 0.0


def test_numeric_loss_gradient(rng):
    truth = rng.normal(size=(5, 3))
    mask = (rng.random((5, 3)) > 0.5).astype(np.int8)
    pred_data = rng.normal(size=(5, 3))
    pred = Tensor(pred_data, requires_grad=True)
    objectives.numeric_imputation_loss(truth, pred, mask).backward()
    fd = central_difference(
        lambda x: float(objectives.numeric_imputation_loss(truth, Tensor(x), mask).data[0, 0]),
        pred_data)
    assert rel_error(pred.grad, fd) < 1e-5


def test_categorical_loss_matches_log_softmax_oracle(rng):
    logits_data = rng.normal(size=(6, 4))
    truth = rng.integers(0, 4, size=(6, 1))
    mask = np.array([[0], [0], [1], [0], [1], [0]])
    loss = objectives.categorical_imputation_loss(truth, [Tensor(logits_data)], mask)
    probs = np_softmax(logits_data)
    rows = np.flatnonzero(mask[:, 0] == 0)
    expected = -np.mean([np.log(probs[i, truth[i, 0]]) for i in rows])
    assert loss.data[0, 0] == pytest.approx(expected, rel=1e-10)


def test_categorical_loss_empty_support():
    truth = np.array([[2]])
    loss = objectives.categorical_imputation_loss(truth, [Tensor(np.zeros((1, 3)))],
                                                  np.array([[1]]))
    assert loss.data[0, 0] == 0.0


def test_categorical_loss_gradient(rng):
    logits_data = rng.normal(size=(5, 3))
    truth = rng.integers(0, 3, size=(5, 1))
    mask = (rng.random((5, 1)) > 0.6).astype(np.int8)
    logits = Tensor(logits_data, requires_grad=True)
    objectives.categorical_imputation_loss(truth, [logits], mask).backward()
    fd = central_difference(
        lambda x: float(objectives.categorical_imputation_loss(truth, [Tensor(x)], mask).data[0, 0]),
        logits_data)
    assert rel_error(logits.grad, fd) < 1e-5


def test_task_loss_uniform_logits():
    logits = Tensor(np.zeros((4, 3)))
    loss = objectives.task_loss(logits, [0, 1, 2, 0])
    assert loss.data[0, 0] == pytest.approx(np.log(3.0))


def test_task_loss_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        objectives.task_loss(Tensor(np.zeros((2, 2))), [0, 2])


def test_task_loss_gradient(rng):
    logits_data = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    logits = Tensor(logits_data, requires_grad=True)
    objectives.task_loss(logits, labels).backward()
    fd = central_difference(
        lambda x: float(objectives.task_loss(Tensor(x), labels).data[0, 0]), logits_data)
    assert rel_error(logits.grad, fd) < 1e-5


def test_homophily_hand_example():
    """Two rows per class, one interclass relaxed edge of 0.8 (counted in
    both directions), m = 4 -> loss = 1.6 / 16."""
    relaxed = np.zeros((4, 4))
    relaxed[0, 2] = relaxed[2, 0] = 0.8
    sample = model.GraphSample(Tensor(relaxed), Tensor(np.eye(4)), np.eye(4))
    loss = objectives.homophily_loss([sample], [0, 0, 1, 1])
    assert loss.data[0, 0] == pytest.approx(1.6 / 16)


def test_homophily_zero_when_single_class():
    relaxed = np.full((3, 3), 0.5)
    sample = model.GraphSample(Tensor(relaxed), Tensor(np.eye(3)), np.eye(3))
    loss = objectives.homophily_loss([sample], [1, 1, 1])
    assert loss.data[0, 0] == 0.0


def test_homophily_ignores_prototype_rows():
    """Rows beyond the labelled batch (prototypes) never contribute."""
    relaxed = np.zeros((5, 5))
    relaxed[3, 4] = relaxed[4, 3] = 1.0  # prototype-prototype edges
    relaxed[0, 3] = 1.0                  # data-prototype edge
    sample = model.GraphSample(Tensor(relaxed), Tensor(np.eye(5)), np.eye(5))
    loss = objectives.homophily_loss([sample], [0, 1, 0])
    assert loss.data[0, 0] == 0.0


def test_homophily_gradient(rng):
    labels = np.array([0, 1, 0, 1])
    relaxed_data = rng.uniform(size=(4, 4))

    def build(x):
        return [model.GraphSample(Tensor(x, requires_grad=True), Tensor(np.eye(4)), np.eye(4))]

    samples = build(relaxed_data)
    objectives.homophily_loss(samples, labels).backward()
    fd = central_difference(
        lambda x: float(objectives.homophily_loss(
            [model.GraphSample(Tensor(x), Tensor(np.eye(4)), np.eye(4))],
            labels).data[0, 0]),
        relaxed_data)
    assert rel_error(samples[0].relaxed.grad, fd) < 1e-5


def test_triplet_zero_when_classes_separated(rng):
    """Clusters far apart relative to the margin produce zero hinge loss."""
    h = np.vstack([np.zeros((4, 2)), np.full((4, 2), 10.0)])
    labels = np.array([0] * 4 + [1] * 4)
    loss = objectives.triplet_regularizer(Tensor(h), labels, 0.05,
                                          np.random.default_rng(0))
    assert loss.data[0, 0] == 0.0


def test_triplet_positive_when_classes_mixed(rng):
    gen = np.random.default_rng(1)
    h = gen.normal(size=(10, 2)) * 0.01  # everything on top of everything
    labels = np.array([0, 1] * 5)
    loss = objectives.triplet_regularizer(Tensor(h), labels, 0.5, gen)
    assert loss.data[0, 0] > 0.0


def test_triplet_single_class_is_zero(rng):
    loss = objectives.triplet_regularizer(Tensor(np.zeros((4, 2))), [0, 0, 0, 0],
                                          0.05, rng)
    assert loss.data[0, 0] == 0.0


def test_triplet_gradient(rng):
    h_data = rng.normal(size=(8, 3))
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])

    h = Tensor(h_data, requires_grad=True)
    objectives.triplet_regularizer(h, labels, 1.0, np.random.default_rng(3)).backward()
    fd = central_difference(
        lambda x: float(objectives.triplet_regularizer(
            Tensor(x), labels, 1.0, np.random.default_rng(3)).data[0, 0]),
        h_data)
    # stochastic sampling depends on distances, so perturbations can flip
    # a chosen negative; use a loose tolerance and require agreement in shape
    assert rel_error(h.grad, fd, floor=1e-4) < 1e-2


def _within_five_errors(count, trials, p):
    """Each count is within 5 binomial standard errors of ``trials * p`` (exact at p 0 or 1)."""
    return np.all(np.abs(count - trials * p) <= 5 * np.sqrt(trials * p * (1 - p)))


def test_triplet_draws_match_their_exact_probabilities():
    """Anchors are uniform over the rows, less a singleton class's; each positive is
    uniform over the anchor's other class members, and each negative is drawn in
    proportion to ``1 / clip(distance, 0.1, 10)`` over the other classes' rows."""
    labels = np.array([0, 0, 0, 1, 1, 2, 2, 3])  # class 3 is a singleton
    x = np.array([0.0, 0.05, 1.0, 2.0, 3.5, 5.0, 20.0, 0.5])  # distances span both clips
    dist = (x[:, None] - x) ** 2
    n, calls = len(labels), 10000
    pos, neg = np.zeros((n, n)), np.zeros((n, n))  # counts by anchor, then pick
    rng = np.random.default_rng(0)
    for _ in range(calls):
        anchors, positives, negatives = objectives._draw_triplets(dist, labels, rng)
        np.add.at(pos, (anchors, positives), 1)
        np.add.at(neg, (anchors, negatives), 1)
    same = labels[:, None] == labels
    peer = same & ~np.eye(n, dtype=bool)
    weight = np.where(same, 0.0, 1.0 / np.clip(np.abs(x[:, None] - x), 0.1, 10.0))
    drawn = pos.sum(axis=1)
    assert _within_five_errors(drawn, n * calls, np.where(peer.any(axis=1), 1 / n, 0.0))
    keep = drawn > 0
    assert _within_five_errors(pos[keep], drawn[keep, None],
                               peer[keep] / peer[keep].sum(axis=1, keepdims=True))
    assert _within_five_errors(neg[keep], drawn[keep, None],
                               weight[keep] / weight[keep].sum(axis=1, keepdims=True))


class _CountingGenerator:
    """A generator that records the name of each method read from it, so of each call."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


@settings(max_examples=60)
@given(n=st.integers(2, 60), n_classes=st.integers(2, 4), singles=st.integers(0, 3),
       spread=st.floats(0.01, 20.0), seed=st.integers(0, 2 ** 32 - 1))
def test_each_triplet_pairs_an_anchor_with_a_peer_and_another_class(n, n_classes, singles,
                                                                    spread, seed):
    """At most n triplets, from three generator calls; no anchor of a singleton class."""
    gen = np.random.default_rng(seed)
    labels = gen.integers(0, n_classes, size=n)
    labels[:min(singles, n)] = n_classes + np.arange(min(singles, n))
    assume(len(np.unique(labels)) > 1)
    h = gen.normal(size=(n, 2)) * spread
    rng = _CountingGenerator(np.random.default_rng(seed))
    a, p, ng = objectives._draw_triplets(((h[:, None] - h) ** 2).sum(axis=2), labels, rng)
    assert rng.calls == ["integers", "integers", "random"]
    assert len(a) == len(p) == len(ng) <= n
    assert np.all(labels[a] == labels[p]) and np.all(a != p)
    assert np.all(labels[ng] != labels[a])
    assert np.all((labels[a, None] == labels).sum(axis=1) > 1)


def _looped_triplets(dist, labels, rng):
    """The three draws of ``objectives._draw_triplets``, then one anchor at a time:
    two ``flatnonzero`` scans and an inverted cumulative weight (its oracle)."""
    n = len(labels)
    anchors = [int(a) for a in rng.integers(n, size=n) if (labels == labels[a]).sum() > 1]
    peers = np.array([(labels == labels[a]).sum() - 1 for a in anchors], dtype=np.int64)
    offsets = rng.integers(0, peers)
    uniforms = rng.random(len(anchors))
    triplets = []
    for a, k, u in zip(anchors, offsets, uniforms):
        same = np.flatnonzero((labels == labels[a]) & (np.arange(n) != a))
        other = np.flatnonzero(labels != labels[a])
        cdf = np.cumsum(1.0 / np.clip(np.sqrt(dist[a, other]), 0.1, 10.0))
        triplets.append((a, int(same[k]), int(other[np.searchsorted(cdf, u * cdf[-1], "right")])))
    return triplets


def _looped_triplet_regularizer(h_graph, labels, margin, rng):
    """The batched hinge over the per-anchor loop's triplets."""
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        return Tensor(np.zeros((1, 1)))
    dist = T.pairwise_sq_dist(h_graph)
    triplets = _looped_triplets(dist.data, labels, rng)
    if not triplets:
        return Tensor(np.zeros((1, 1)))
    anchors, positives, negatives = (list(c) for c in zip(*triplets))
    t = len(anchors)
    sign = np.zeros((t, dist.shape[1]))
    sign[np.arange(t), positives] = 1.0
    sign[np.arange(t), negatives] = -1.0
    gap = T.reduce_sum(T.mul(T.gather_rows(dist, anchors), Tensor(sign)), axis=1)
    return T.scale(T.reduce_sum(T.relu(T.add_scalar(gap, margin))), 1.0 / t)


def _selector_triplet_regularizer(h_graph, labels, margin, rng):
    """The hinge built per triplet from two m x m selector matrices: the
    oracle for the batched hinge in ``objectives.triplet_regularizer``."""
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        return Tensor(np.zeros((1, 1)))
    dist = T.pairwise_sq_dist(h_graph)
    triplets = _looped_triplets(dist.data, labels, rng)
    if not triplets:
        return Tensor(np.zeros((1, 1)))
    m = h_graph.shape[0]
    total = None
    for a, p, ng in triplets:
        sel_p = np.zeros((m, m))
        sel_p[a, p] = 1.0
        sel_n = np.zeros((m, m))
        sel_n[a, ng] = 1.0
        d_pos = T.reduce_sum(T.mul(dist, Tensor(sel_p)))
        d_neg = T.reduce_sum(T.mul(dist, Tensor(sel_n)))
        term = T.relu(T.add_scalar(d_pos - d_neg, margin))
        total = term if total is None else total + term
    return T.scale(total, 1.0 / len(triplets))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 260), width=st.integers(1, 4), n_classes=st.integers(1, 5),
       singles=st.integers(0, 3), margin=st.floats(0.0, 3.0), spread=st.floats(0.01, 5.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_triplet_matches_the_per_anchor_loop_bit_for_bit(n, width, n_classes, singles, margin,
                                                         spread, seed):
    """Same loss, gradient and generator state after the call (the stream
    carries on across batches); ``singles`` rows get a class of their own."""
    gen = np.random.default_rng(seed)
    h_data = gen.normal(size=(n, width)) * spread
    labels = gen.integers(0, n_classes, size=n)
    labels[:min(singles, n - 1)] = n_classes + np.arange(min(singles, n - 1))
    fast_h, slow_h = Tensor(h_data, requires_grad=True), Tensor(h_data, requires_grad=True)
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = objectives.triplet_regularizer(fast_h, labels, margin, fast_rng)
    slow = _looped_triplet_regularizer(slow_h, labels, margin, slow_rng)
    assert fast.data.tobytes() == slow.data.tobytes()
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    fast.backward()
    slow.backward()
    if slow_h.grad is None:  # no triplet drawn: the loss is a constant
        assert fast_h.grad is None
    else:
        assert fast_h.grad.tobytes() == slow_h.grad.tobytes()


def test_triplet_on_a_non_finite_projection_is_a_non_finite_term(rng):
    h = rng.normal(size=(6, 2))
    h[2, 0] = np.nan
    term = objectives.triplet_regularizer(Tensor(h), [0, 1] * 3, 0.05, np.random.default_rng(0))
    assert np.isnan(term.item())
    parts = {name: Tensor(np.zeros((1, 1))) for name in objectives.TERMS}
    parts["triplet"] = term
    with pytest.raises(FloatingPointError, match="triplet"):
        objectives.total_loss(parts, objectives.LossWeights(triplet=0.1))


@settings(max_examples=60)
@given(n=st.integers(2, 14), width=st.integers(1, 4), n_classes=st.integers(1, 3),
       margin=st.floats(0.0, 3.0), spread=st.floats(0.01, 5.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_triplet_matches_per_triplet_selector_oracle(n, width, n_classes, margin, spread, seed):
    gen = np.random.default_rng(seed)
    h_data = gen.normal(size=(n, width)) * spread
    labels = gen.integers(0, n_classes, size=n)
    fast_h = Tensor(h_data, requires_grad=True)
    fast = objectives.triplet_regularizer(fast_h, labels, margin, np.random.default_rng(seed))
    slow_h = Tensor(h_data, requires_grad=True)
    slow = _selector_triplet_regularizer(slow_h, labels, margin, np.random.default_rng(seed))
    assert abs(fast.item() - slow.item()) <= 1e-12 * max(1.0, abs(slow.item()))
    fast.backward()
    slow.backward()
    if slow_h.grad is None:  # no triplet drawn: the loss is a constant
        assert fast_h.grad is None
    else:
        assert np.array_equal(fast_h.grad, slow_h.grad)


def test_total_loss_weighting():
    parts = {name: Tensor(np.full((1, 1), float(v)))
             for name, v in zip(objectives.TERMS, range(1, 6))}
    w = objectives.LossWeights(task=1.0, imputation=1.0, homophily=0.1, triplet=0.5)
    total = objectives.total_loss(parts, w)
    assert total.data[0, 0] == pytest.approx(1 + (2 + 3) + 0.4 + 2.5)


def test_total_loss_triplet_skipped_at_zero_weight():
    parts = {name: Tensor(np.zeros((1, 1))) for name in objectives.TERMS}
    parts["task"], parts["triplet"] = Tensor(np.ones((1, 1))), Tensor(np.full((1, 1), 99.0))
    total = objectives.total_loss(parts, objectives.LossWeights(triplet=0.0))
    assert total.data[0, 0] == pytest.approx(1.0)


def test_total_loss_rejects_nonfinite():
    parts = {name: Tensor(np.zeros((1, 1))) for name in objectives.TERMS}
    parts["task"] = Tensor(np.array([[np.nan]]))
    with pytest.raises(FloatingPointError, match="task"):
        objectives.total_loss(parts, objectives.LossWeights())


def test_weights_validation():
    with pytest.raises(ValueError):
        objectives.LossWeights(task=-1.0).validate()


def test_compute_losses_end_to_end(small_mixed_dataset, rng):
    ds = small_mixed_dataset
    cfg = model.ModelConfig(hidden=8, prototypes=2, embed_width=4)
    params = model.ParameterSet(cfg, ds.schema, num_classes=2, seed=0)
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    batch = make_batch(ds, np.arange(12), init, 0.3)
    out = model.forward(batch, params, 0.3, "train", rng)
    parts = objectives.compute_losses(batch, out, objectives.LossWeights(triplet=0.1),
                                      rng=rng)
    total = objectives.total_loss(parts, objectives.LossWeights(triplet=0.1))
    assert np.isfinite(total.data).all()
    total.backward()
    named = params.named_parameters()
    assert named["mlp_fp.w1"].grad is not None
    assert np.any(named["mlp_fp.w1"].grad != 0)
