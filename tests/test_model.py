import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import central_difference, make_batch, mixed_dataset, rel_error
from eggimpute import dataio, ensemble, model
from eggimpute import tensor as T
from eggimpute.tensor import Tensor


def small_params(ds, sampler="egg", prototypes=2, hidden=8, k=3, seed=0, blocks=1):
    cfg = model.ModelConfig(hidden=hidden, blocks=blocks, prototypes=prototypes,
                            embed_width=4, sampler=sampler, k=k)
    return model.ParameterSet(cfg, ds.schema, num_classes=2, seed=seed)


def test_config_validation():
    with pytest.raises(ValueError):
        model.ModelConfig(sampler="nope").validate()
    with pytest.raises(ValueError):
        model.ModelConfig(blocks=0).validate()


def edge_probabilities(h):
    return np.exp(model.log_edge_probabilities(h).data)


def test_edge_probabilities_identical_rows():
    p = edge_probabilities(Tensor(np.ones((3, 4))))
    assert np.allclose(p, 1.0)


def test_edge_probabilities_hand_example():
    h = Tensor([[0.0, 0.0], [1.0, 0.0]])
    p = edge_probabilities(h)
    assert p[0, 1] == pytest.approx(np.exp(-1.0))
    assert p[0, 0] == 1.0


def test_edge_probabilities_monotone_in_distance(rng):
    h = Tensor(rng.normal(size=(6, 3)))
    d = T.pairwise_sq_dist(h).data
    p = edge_probabilities(h)
    order_d = np.argsort(d.ravel())
    assert np.all(np.diff(p.ravel()[order_d]) <= 1e-15)


def test_log_edge_probabilities_gradient(rng):
    h_data = rng.normal(size=(5, 3))
    h = Tensor(h_data, requires_grad=True)
    w = rng.normal(size=(5, 5))
    T.reduce_sum(T.mul(model.log_edge_probabilities(h), Tensor(w))).backward()
    fd = central_difference(
        lambda x: float((model.log_edge_probabilities(Tensor(x)).data * w).sum()), h_data)
    assert rel_error(h.grad, fd) < 1e-5


def sample_many(sampler, n_samples=200, m=9, k=3, tau=0.3, seed=0):
    rng = np.random.default_rng(seed)
    gen = np.random.default_rng(99)
    log_p = Tensor(-gen.uniform(0, 4, size=(m, m)))
    log_p.data = np.minimum(log_p.data, log_p.data.T)
    np.fill_diagonal(log_p.data, 0.0)
    for _ in range(n_samples):
        if sampler == "egg":
            yield model.sample_adjacency_egg(log_p, tau, rng)
        else:
            yield model.sample_adjacency_egg(log_p, tau, rng, k)


@pytest.mark.parametrize("sampler", ["egg", "kegg"])
def test_sampled_graphs_are_valid(sampler):
    m, k = 9, 3
    for s in sample_many(sampler, m=m, k=k):
        hard = s.hard
        assert np.array_equal(hard, hard.T)
        assert np.array_equal(np.diag(hard), np.ones(m))
        assert set(np.unique(hard)) <= {0.0, 1.0}
        assert np.array_equal(s.adjacency.data, hard)  # straight-through forward
        if sampler == "kegg":
            row_sums = hard.sum(axis=1)
            assert np.all(row_sums >= k + 1) and np.all(row_sums <= m)


def test_egg_edge_frequency_monotone_in_probability():
    """Closer pairs must be sampled as edges more often (frequency oracle)."""
    rng = np.random.default_rng(5)
    log_p = np.zeros((3, 3))
    log_p[0, 1] = log_p[1, 0] = -0.05   # near pair
    log_p[0, 2] = log_p[2, 0] = -4.0    # far pair
    log_p[1, 2] = log_p[2, 1] = -4.0
    t = Tensor(log_p)
    hits_near = hits_far = 0
    n = 400
    for _ in range(n):
        s = model.sample_adjacency_egg(t, 0.2, rng)
        hits_near += s.hard[0, 1]
        hits_far += s.hard[0, 2]
    assert hits_near / n > hits_far / n + 0.3


def test_egg_keeps_each_pair_with_probability_one_minus_exp_minus_p():
    """Frequency oracle for the rule the egg sampler implements: a pair is kept
    when log P + G > 0 for one Gumbel draw G, so with probability 1 - exp(-P),
    not P, and whatever tau is.  Every pair lies within binomial errors."""
    rng = np.random.default_rng(7)
    m, draws = 20, 4000
    log_p = model.log_edge_probabilities(Tensor(rng.normal(0, 0.6, size=(m, 2))))
    hits = np.zeros((m, m))
    for _ in range(draws):
        hits += model.sample_adjacency_egg(log_p, 0.5, rng).hard
    upper = np.triu_indices(m, k=1)
    p = np.exp(log_p.data[upper])
    assert p.min() < 0.05 and p.max() > 0.95  # near and far pairs alike
    freq = hits[upper] / draws
    expected = 1 - np.exp(-p)
    assert np.abs((freq - expected) / np.sqrt(expected * (1 - expected) / draws)).max() < 4.5
    assert np.abs(freq - p).mean() > 0.05  # P itself is not the edge marginal


def test_egg_gradient_reaches_log_probs(rng):
    log_p = Tensor(rng.normal(-1.0, 0.3, size=(5, 5)), requires_grad=True)
    s = model.sample_adjacency_egg(log_p, 0.5, rng)
    T.reduce_sum(s.adjacency).backward()
    assert log_p.grad is not None
    assert np.any(log_p.grad != 0)


def test_kegg_selects_exactly_k_per_row(rng):
    log_p = Tensor(rng.normal(size=(8, 8)))
    s = model.sample_adjacency_egg(log_p, 0.4, rng, 3)
    # relaxed support: exactly k off-diagonal candidates per row
    support = (s.relaxed.data > 0).sum(axis=1)
    assert np.all(support == 3)
    assert np.all(np.diag(s.relaxed.data) == 0)


def test_kegg_rejects_bad_k(rng):
    log_p = Tensor(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        model.sample_adjacency_egg(log_p, 0.4, rng, 4)
    with pytest.raises(ValueError):
        model.sample_adjacency_egg(log_p, 0.4, rng, 0)


def test_kegg_name_is_the_merged_sampler_with_k():
    log_p = Tensor(np.random.default_rng(3).normal(size=(9, 9)))
    a = model.sample_adjacency_kegg(log_p, 0.4, 3, np.random.default_rng(5))
    b = model.sample_adjacency_egg(log_p, 0.4, np.random.default_rng(5), 3)
    for x, y in ((a.hard, b.hard), (a.relaxed.data, b.relaxed.data),
                 (a.adjacency.data, b.adjacency.data)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("fn", [lambda t, r: model.sample_adjacency_egg(t, 0.0, r),
                                lambda t, r: model.sample_adjacency_egg(t, -1.0, r, 2)],
                         ids=["egg", "kegg"])
def test_samplers_reject_nonpositive_temperature(fn, rng):
    with pytest.raises(ValueError):
        fn(Tensor(np.zeros((4, 4))), rng)


def test_sampler_determinism():
    log_p = Tensor(np.random.default_rng(0).normal(size=(6, 6)))
    a = model.sample_adjacency_egg(log_p, 0.3, np.random.default_rng(77)).hard
    b = model.sample_adjacency_egg(log_p, 0.3, np.random.default_rng(77)).hard
    assert np.array_equal(a, b)


# The two samplers as they were before they became one function with an
# optional k; the merged sampler must reproduce them bit for bit.

def oracle_egg(log_probs, tau, rng):
    m = log_probs.shape[0]
    upper = np.triu(np.ones((m, m)), k=1)
    noise = model._gumbel(rng, (m, m), log_probs.data.dtype)
    logits = T.scale(log_probs + Tensor(noise), 1.0 / tau)
    relaxed = T.mul(T.sigmoid(logits), Tensor(upper))
    hard_upper = (relaxed.data > 0.5) * upper
    hard = hard_upper + hard_upper.T + np.eye(m)
    relaxed_sym = relaxed + T.transpose(relaxed) + Tensor(np.eye(m))
    return relaxed, T.straight_through(relaxed_sym, hard), hard


def oracle_kegg(log_probs, tau, k, rng):
    m = log_probs.shape[0]
    offdiag = 1.0 - np.eye(m)
    noise = model._gumbel(rng, (m, m), log_probs.data.dtype)
    logits = T.scale(log_probs + Tensor(noise), 1.0 / tau)
    perturbed = logits.data + np.where(offdiag == 1, 0.0, -np.inf)
    top = np.argpartition(-perturbed, k - 1, axis=1)[:, :k]
    selected = np.zeros((m, m))
    selected[np.repeat(np.arange(m), k), top.ravel()] = 1.0
    relaxed = T.mul(T.sigmoid(logits), Tensor(selected))
    hard = np.minimum(selected + selected.T + np.eye(m), 1.0)
    relaxed_sym = relaxed + T.transpose(relaxed) + Tensor(np.eye(m))
    return relaxed, T.straight_through(relaxed_sym, hard), hard


def bits(a):
    return np.asarray(a).dtype, np.asarray(a).shape, np.asarray(a).tobytes()


@settings(max_examples=300)
@given(data=st.data(), m=st.integers(2, 30), tau=st.floats(0.005, 1.0),
       spread=st.sampled_from([1.0, 1e18]), seed=st.integers(0, 2 ** 32 - 1))
def test_merged_sampler_matches_both_oracles(data, m, tau, spread, seed):
    """Log-probabilities rounded to one decimal repeat across pairs; scaled
    by 1e18 they swamp the Gumbel noise, so the top-k logits tie.  The loss
    may also read ``relaxed`` through a homophily-style weighted sum, added
    before or after the adjacency term, which pins the order in which
    ``relaxed``'s gradient gets its terms; under ``no_tape()`` the values
    still match and nothing is recorded."""
    k = data.draw(st.none() | st.integers(1, m - 1), label="k")
    reader = data.draw(st.sampled_from(["adjacency", "homophily first", "homophily last",
                                        "no_tape"]), label="reader")
    gen = np.random.default_rng(seed)
    log_p = np.round(-gen.uniform(0, 4, size=(m, m)), 1) * spread
    weights = Tensor(gen.normal(size=(m, m)))
    interclass = Tensor(gen.integers(0, 2, size=(m, m)).astype(np.float64))

    def run(sampler):
        inputs = Tensor(log_p, requires_grad=True)
        rng = np.random.default_rng(seed)
        if reader == "no_tape":
            with T.no_tape():
                relaxed, adjacency, hard = sampler(inputs, rng)
            assert not (relaxed.requires_grad or adjacency.requires_grad)
            assert relaxed._node is None and adjacency._node is None
            return [bits(v) for v in (hard, relaxed.data, adjacency.data, rng.random())]
        relaxed, adjacency, hard = sampler(inputs, rng)
        loss = T.reduce_sum(T.mul(adjacency, weights))
        homophily = T.scale(T.reduce_sum(T.mul(relaxed, interclass)), 1.0 / (m * m))
        if reader == "homophily first":
            loss = homophily + loss
        elif reader == "homophily last":
            loss = loss + homophily
        loss.backward()
        return [bits(v) for v in (hard, relaxed.data, adjacency.data, inputs.grad,
                                  rng.random())]

    def merged(inputs, rng):
        s = model.sample_adjacency_egg(inputs, tau, rng, k)
        return s.relaxed, s.adjacency, s.hard

    if k is None:
        want = run(lambda inputs, rng: oracle_egg(inputs, tau, rng))
    else:
        want = run(lambda inputs, rng: oracle_kegg(inputs, tau, k, rng))
    assert run(merged) == want


def test_sampler_records_two_nodes_and_shares_its_hard_graph():
    """``relaxed`` reads ``log_probs``; ``adjacency`` reads ``relaxed`` twice
    (g, then g.T) and holds the very array ``hard``."""
    log_p = Tensor(np.random.default_rng(0).normal(size=(6, 6)), requires_grad=True)
    for k in (None, 2):
        s = model.sample_adjacency_egg(log_p, 0.3, np.random.default_rng(1), k)
        assert s.relaxed._node.parents == (log_p._node,)
        assert s.adjacency._node.parents == (s.relaxed._node, s.relaxed._node)
        assert s.adjacency.data is s.hard


def test_identity_sample():
    s = model.constant_sample(np.eye(5))
    assert np.array_equal(s.hard, np.eye(5))
    assert np.array_equal(s.adjacency.data, np.eye(5))


def test_gcn_update_identity_adjacency_zero_weight(rng):
    """With A = I and W = 0 the update reduces to row layer norm of H."""
    h_data = rng.normal(size=(4, 6))
    h = Tensor(h_data)
    out = model.gcn_update(h, model.constant_sample(np.eye(4)), Tensor(np.zeros((6, 6))))
    expected = T.layer_norm_row(Tensor(h_data)).data
    assert np.allclose(out.data, expected)


def test_gcn_update_hand_normalization():
    """Two connected nodes: D^{-1/2} A D^{-1/2} has 1/2 everywhere."""
    h = Tensor([[2.0, 0.0], [0.0, 2.0]])
    adj = np.ones((2, 2))
    out_msg = (np.array([[0.5, 0.5], [0.5, 0.5]]) @ h.data) @ np.eye(2)
    out = model.gcn_update(h, model.constant_sample(adj), Tensor(np.eye(2)))
    expected = T.layer_norm_row(Tensor(out_msg + h.data)).data
    assert np.allclose(out.data, expected)


def test_gcn_update_rejects_invalid_adjacency():
    h = Tensor(np.zeros((3, 2)))
    w = Tensor(np.eye(2))
    asym = np.eye(3)
    asym[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        model.gcn_update(h, model.constant_sample(asym), w)
    no_diag = np.zeros((3, 3))
    with pytest.raises(ValueError, match="diagonal"):
        model.gcn_update(h, model.constant_sample(no_diag), w)


def test_gcn_update_gradient_matches_finite_differences(rng):
    h_data = rng.normal(size=(4, 3))
    adj = np.minimum(np.eye(4) + (rng.random((4, 4)) > 0.5), 1.0)
    adj = np.minimum(adj + adj.T, 1.0)
    np.fill_diagonal(adj, 1.0)
    w_data = rng.normal(size=(3, 3)) * 0.3
    probe = rng.normal(size=(4, 3))

    h = Tensor(h_data, requires_grad=True)
    out = model.gcn_update(h, model.constant_sample(adj), Tensor(w_data))
    T.reduce_sum(T.mul(out, Tensor(probe))).backward()

    def f(x):
        o = model.gcn_update(Tensor(x), model.constant_sample(adj), Tensor(w_data))
        return float((o.data * probe).sum())

    fd = central_difference(f, h_data)
    assert rel_error(h.grad, fd) < 1e-4


@pytest.mark.parametrize("sampler", ["egg", "kegg", "identity"])
def test_forward_shapes(sampler, small_mixed_dataset, rng):
    ds = small_mixed_dataset
    params = small_params(ds, sampler=sampler)
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    batch = make_batch(ds, np.arange(10), init, 0.2)
    out = model.forward(batch, params, 0.3, "train", rng)
    assert params.head_num.w.shape[0] == 8  # blocks * hidden
    assert out.numeric_pred.shape == (10, 3)
    assert len(out.cat_logits) == 1 and out.cat_logits[0].shape == (10, 3)
    assert out.task_logits.shape == (10, 2)
    assert len(out.samples) == 1
    m = 10 + params.config.prototypes
    assert out.samples[0].hard.shape == (m, m)


def test_encode_rejects_an_embedding_table_that_does_not_fit_the_column(small_mixed_dataset):
    """A table whose rows are not the column's categories plus the missing
    token is refused by name, even when every index would fit it."""
    ds = small_mixed_dataset
    params = small_params(ds)
    schema = [*ds.schema[:3], dataio.ColumnSchema("cat", dataio.CATEGORICAL, cardinality=4)]
    wider = dataio.TabularDataset(schema, ds.values, ds.targets, 2)
    batch = make_batch(wider, np.arange(6), np.ones(ds.values.shape, dtype=np.int8), 0.0)
    with pytest.raises(ValueError, match=r"embedding table for 'cat' has shape \(4, 4\), "
                                         r"expected \(5, 4\)"):
        model.encode(batch, params, "eval")


def test_forward_rejects_bad_mode(small_mixed_dataset, rng):
    ds = small_mixed_dataset
    params = small_params(ds)
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    batch = make_batch(ds, np.arange(6), init, 0.2)
    with pytest.raises(ValueError):
        model.forward(batch, params, 0.3, "test", rng)


def test_forward_on_a_constant_sample_is_deterministic(small_mixed_dataset, monkeypatch):
    ds = small_mixed_dataset
    params = small_params(ds)
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    batch = make_batch(ds, np.arange(6), init, 0.2)
    m = 6 + params.config.prototypes
    adj = np.eye(m)
    monkeypatch.setattr(model, "sample_adjacency_egg", lambda *_: model.constant_sample(adj))
    outs = []
    for seed in (1, 2):
        out = model.forward(batch, params, 0.3, "eval", np.random.default_rng(seed))
        outs.append(out.numeric_pred.data.copy())
    assert np.array_equal(outs[0], outs[1])


def test_forward_multi_block_concatenates(small_mixed_dataset, rng):
    ds = small_mixed_dataset
    params = small_params(ds, blocks=2)
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    batch = make_batch(ds, np.arange(7), init, 0.2)
    out = model.forward(batch, params, 0.3, "train", rng)
    assert out.numeric_pred.shape[0] == 7
    assert params.head_num.w.shape[0] == 2 * 8  # blocks * hidden
    assert len(out.samples) == 2


def test_prototypes_participate_in_graph(small_mixed_dataset):
    """With p prototypes the sampled graph has n + p nodes, and the output
    rows correspond to the data nodes only."""
    ds = small_mixed_dataset
    params = small_params(ds, prototypes=4)
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    batch = make_batch(ds, np.arange(5), init, 0.2)
    out = model.forward(batch, params, 0.3, "train", np.random.default_rng(0))
    assert out.samples[0].hard.shape == (9, 9)
    assert out.numeric_pred.shape[0] == 5


def test_zero_prototypes_supported(small_mixed_dataset, rng):
    ds = small_mixed_dataset
    params = small_params(ds, prototypes=0)
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    batch = make_batch(ds, np.arange(5), init, 0.2)
    out = model.forward(batch, params, 0.3, "train", rng)
    assert out.samples[0].hard.shape == (5, 5)


@settings(max_examples=80)
@given(sampler=st.sampled_from(["egg", "kegg"]), blocks=st.integers(1, 2),
       prototypes=st.integers(0, 3), rows=st.integers(1, 12), k=st.integers(1, 5),
       taus=st.lists(st.floats(0.005, 1.0), min_size=2, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eval_forward_does_not_depend_on_temperature(sampler, blocks, prototypes, rows, k,
                                                     taus, seed):
    """The forward pass reads only the hard graph, whose edges follow the
    sign (egg) or the rank (kegg) of the perturbed logits, so inference
    outputs cannot depend on tau; that is why inference takes none."""
    ds = mixed_dataset()
    params = small_params(ds, sampler=sampler, prototypes=prototypes, k=k, blocks=blocks,
                          seed=seed)
    batch = make_batch(ds, np.arange(rows), np.ones(ds.values.shape, dtype=np.int8), 0.2,
                       seed=seed)

    def outputs(tau):
        out = model.forward(batch, params, tau, "eval", np.random.default_rng(seed))
        return [bits(t.data) for t in [out.numeric_pred, *out.cat_logits, out.task_logits]] + \
            [bits(sample.hard) for sample in out.samples]

    assert outputs(taus[0]) == outputs(taus[1])


def test_checkpoint_round_trip(tmp_path, small_mixed_dataset):
    ds = small_mixed_dataset
    params = small_params(ds, seed=3)
    # move batch-norm running stats off their init so they are exercised too
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    batch = make_batch(ds, np.arange(8), init, 0.2)
    model.forward(batch, params, 0.3, "train", np.random.default_rng(0))

    path = tmp_path / "ckpt.npz"
    model.save_checkpoint(path, params)
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
    assert set(meta) == {"version", "config", "num_classes"}
    loaded = model.load_checkpoint(path, ds.schema)
    for name, p in params.named_parameters().items():
        assert np.array_equal(p.data, loaded.named_parameters()[name].data)
    out_a = model.forward(batch, params, 0.3, "eval", np.random.default_rng(4))
    batch_b = make_batch(ds, np.arange(8), init, 0.2)
    out_b = model.forward(batch_b, loaded, 0.3, "eval", np.random.default_rng(4))
    assert np.array_equal(out_a.numeric_pred.data, out_b.numeric_pred.data)


def test_checkpoint_version_guard(tmp_path, small_mixed_dataset):
    ds = small_mixed_dataset
    params = small_params(ds)
    path = tmp_path / "ckpt.npz"
    model.save_checkpoint(path, params)
    import json
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta["version"] = 999
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="version"):
        model.load_checkpoint(path, ds.schema)


def test_a_float32_checkpoint_round_trip_is_bit_exact(tmp_path, small_mixed_dataset):
    """Every parameter and batch-norm statistic is saved and loaded as float32, bit for bit."""
    ds = small_mixed_dataset
    params = small_params(ds, blocks=2)
    for name, array in params.state_arrays().items():  # move the statistics off their init
        array += np.random.default_rng(len(name)).normal(size=array.shape)
    path = tmp_path / "ckpt.npz"
    model.save_checkpoint(path, params)
    with np.load(path) as data:
        assert {data[k].dtype for k in data.files if k != "__meta__"} == {np.dtype(np.float32)}
    loaded = model.load_checkpoint(path, ds.schema).state_arrays()
    saved = params.state_arrays()
    assert loaded.keys() == saved.keys()
    for name in saved:
        assert loaded[name].dtype == np.float32 and bits(loaded[name]) == bits(saved[name]), name


def test_a_float64_checkpoint_loads_as_float32_and_imputes(tmp_path, small_mixed_dataset,
                                                           monkeypatch):
    """A checkpoint of float64 arrays, as the code before float32 training wrote it,
    loads into float32 parameters (each array cast) and imputes finitely."""
    ds = small_mixed_dataset
    with monkeypatch.context() as mp:
        mp.setattr(model, "DTYPE", np.float64)
        wide = small_params(ds)
    path = tmp_path / "ckpt.npz"
    model.save_checkpoint(path, wide)
    loaded = model.load_checkpoint(path, ds.schema)
    for name, array in wide.state_arrays().items():
        assert array.dtype == np.float64
        assert bits(loaded.state_arrays()[name]) == bits(array.astype(np.float32)), name
    mask = np.ones(ds.values.shape, dtype=np.int8)
    mask[::3, 0] = mask[1::4, 3] = 0
    imputed = ensemble.ensemble_impute(ds, mask, loaded, 2, 0, batch_size=10)
    assert np.isfinite(imputed).all()
    assert np.array_equal(imputed[mask == 1], ds.values[mask == 1])


@pytest.mark.parametrize("value", [np.int64(1), np.nan, np.inf, 1e300],
                         ids=["int", "nan", "inf", "beyond_float32"])
def test_load_checkpoint_refuses_an_array_that_is_not_finite_float32(tmp_path, value,
                                                                     small_mixed_dataset):
    """An integer array, a non-finite value, or a float64 value that casting to
    float32 would make inf."""
    ds = small_mixed_dataset
    path = tmp_path / "ckpt.npz"
    model.save_checkpoint(path, small_params(ds))
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["gcn.0.w"] = np.full_like(arrays["gcn.0.w"], value, dtype=np.asarray(value).dtype)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="checkpoint array 'gcn.0.w' holds a value that is "
                                         "not a finite float32"):
        model.load_checkpoint(path, ds.schema)


@pytest.mark.parametrize("rows,prototypes", [(1, 0), (2, 0), (2, 2), (4, 1)])
def test_kegg_forward_on_k_nodes_or_fewer_links_every_pair(small_mixed_dataset, rows,
                                                           prototypes):
    """With m <= k nodes, k is capped at m - 1, so the graph is complete."""
    ds = small_mixed_dataset
    params = small_params(ds, sampler="kegg", prototypes=prototypes, k=5)
    mask = np.ones(ds.values.shape, dtype=np.int8)
    batch = make_batch(ds, np.arange(rows), mask, 0.0)
    out = model.forward(batch, params, 0.3, "train", np.random.default_rng(0))
    m = rows + prototypes
    assert np.array_equal(out.samples[0].hard, np.ones((m, m)))
