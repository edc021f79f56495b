"""Attentive graph convolution: normalization, forward, hand-derived backward.

A context is (vertex count, (m, 2) edge array).  Most tests encode one
context, the smallest batch; the batch tests at the end stack several."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dkge.agcn import (AgcnParams, ContextBatch, _block_product, agcn_backward,
                       agcn_forward, normalize_adjacency)


def make_params(rng, d, layers):
    return AgcnParams(
        weights=[rng.normal(size=(d, d)) * 0.5 for _ in range(layers)],
        attention=rng.normal(size=d))


def edges(*pairs):
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


def random_context(rng, n):
    """n vertices; each pair i <= j, self-loops included, is an edge with
    probability 1/2."""
    return n, edges(*[(i, j) for i in range(n) for j in range(i, n)
                      if rng.random() < 0.5])


def dense(ctx):
    n, e = ctx
    a = np.zeros((n, n))
    a[e[:, 0], e[:, 1]] = a[e[:, 1], e[:, 0]] = 1.0
    return a


def batch_of(*contexts):
    """ContextBatch of (n, edges) contexts, S built by normalize_adjacency."""
    sizes = [n for n, _ in contexts]
    edges = np.concatenate([e for _, e in contexts] or [np.empty((0, 2), np.intp)])
    s = normalize_adjacency(sizes, edges, [len(e) for _, e in contexts])
    return ContextBatch(s, np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes))


def normalize(*contexts):
    return batch_of(*contexts).norm_adj.toarray()


def forward_one(h0, ctx, params, o_k):
    """Encode one context: (embedding, cache)."""
    out, cache = agcn_forward(h0, batch_of(ctx), params, o_k[None, :])
    return out[0], cache


# -- normalization ------------------------------------------------------------

def test_normalize_path_graph_oracle():
    """3-vertex path: degrees with self-loops are 2,3,2."""
    s = normalize((3, edges((0, 1), (1, 2))))
    expected = np.array([
        [1 / 2, 1 / np.sqrt(6), 0],
        [1 / np.sqrt(6), 1 / 3, 1 / np.sqrt(6)],
        [0, 1 / np.sqrt(6), 1 / 2]])
    assert np.allclose(s, expected, atol=1e-12)


def test_normalize_isolated_vertex():
    s = normalize((1, edges()))
    assert s.shape == (1, 1)
    assert s[0, 0] == 1.0  # self-loop only


def test_normalize_is_exactly_symmetric():
    rng = np.random.default_rng(0)
    s = normalize(random_context(rng, 7))
    assert np.array_equal(s, s.T)


def test_normalize_rejects_edge_past_its_context():
    with pytest.raises(ValueError, match="outside its context"):
        normalize((2, edges((0, 2))))


def test_normalize_rejects_negative_vertex():
    with pytest.raises(ValueError, match="outside its context"):
        normalize((2, edges((-1, 1))))


def test_normalize_matches_dense_formula():
    """S equals D^-1/2 (A + I) D^-1/2 computed densely, bit for bit."""
    rng = np.random.default_rng(5)
    blocks = [random_context(rng, n) for n in (1, 2, 5, 9, 4, 12)]
    assert any(i == j for _, e in blocks for i, j in e.tolist())
    want = np.zeros((33, 33))
    offset = 0
    for n, e in blocks:
        a_hat = dense((n, e)) + np.eye(n)
        inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
        want[offset:offset + n, offset:offset + n] = (
            a_hat * inv_sqrt[:, None] * inv_sqrt[None, :])
        offset += n
    assert normalize(*blocks).tobytes() == want.tobytes()


# -- forward ------------------------------------------------------------------

def test_forward_single_vertex_oracle():
    """Owner-only context: attention collapses to the single vertex."""
    rng = np.random.default_rng(1)
    d = 5
    params = make_params(rng, d, 1)
    h0 = rng.normal(size=(1, d))
    o_k = rng.normal(size=d)
    out, cache = forward_one(h0, (1, edges()), params, o_k)
    v = np.maximum(h0[0] @ params.weights[0], 0.0)  # S is the identity here
    assert np.allclose(out, v, atol=1e-12)
    assert np.allclose(cache.alpha, [1.0])


def test_forward_two_vertices_hand_computed():
    d = 2
    params = AgcnParams(weights=[np.eye(2)], attention=np.array([1.0, 1.0]))
    h0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    o_k = np.array([1.0, 1.0])
    out, cache = forward_one(h0, (2, edges((0, 1))), params, o_k)
    # S = [[.5,.5],[.5,.5]], H1 = S @ H0 = [[.5,.5],[.5,.5]], scores equal
    assert np.allclose(cache.hs[0], [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(cache.alpha, [0.5, 0.5])
    assert np.allclose(out, [0.5, 0.5])


def test_forward_attention_prefers_aligned_vertex():
    d = 3
    params = AgcnParams(weights=[np.eye(3)], attention=np.ones(3))
    h0 = np.array([[1.0, 1.0, 1.0], [0.1, 0.1, 0.1]])
    o_k = np.ones(3)
    out, cache = forward_one(h0, (2, edges()), params, o_k)
    assert cache.alpha[0] > cache.alpha[1]


def test_forward_rejects_bad_shapes():
    rng = np.random.default_rng(4)
    d = 3
    params = make_params(rng, d, 1)
    with pytest.raises(ValueError):
        forward_one(np.zeros((0, d)), (0, edges()), params, np.zeros(d))
    with pytest.raises(ValueError):
        forward_one(rng.normal(size=(2, d)), (3, edges()), params, np.zeros(d))
    with pytest.raises(ValueError):
        forward_one(rng.normal(size=(2, d)), (2, edges()), params, np.zeros(d + 1))


def test_params_validation():
    with pytest.raises(ValueError):
        AgcnParams(weights=[], attention=np.zeros(3))
    with pytest.raises(ValueError):
        AgcnParams(weights=[np.zeros((3, 3))] * 3, attention=np.zeros(3))
    with pytest.raises(ValueError):
        AgcnParams(weights=[np.zeros((3, 4))], attention=np.zeros(3))


# -- backward -----------------------------------------------------------------

def scalar_out(h0, ctx, params, o_k, probe):
    out, _ = forward_one(h0, ctx, params, o_k)
    return float(out @ probe)


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_matches_finite_differences(layers, seed):
    rng = np.random.default_rng(seed)
    d, n = 4, 5
    params = make_params(rng, d, layers)
    h0 = rng.normal(size=(n, d))
    ctx = random_context(rng, n)
    o_k = rng.normal(size=d)
    probe = rng.normal(size=d)

    out, cache = forward_one(h0, ctx, params, o_k)
    grads = agcn_backward(cache, params, o_k[None, :], probe[None, :])
    eps = 1e-6

    def fd(write, read):
        orig = read()
        write(orig + eps)
        up = scalar_out(h0, ctx, params, o_k, probe)
        write(orig - eps)
        down = scalar_out(h0, ctx, params, o_k, probe)
        write(orig)
        return (up - down) / (2 * eps)

    for i in range(n):
        for j in range(d):
            got = grads.h0[i, j]
            want = fd(lambda v, i=i, j=j: h0.__setitem__((i, j), v),
                      lambda i=i, j=j: h0[i, j])
            assert got == pytest.approx(want, abs=2e-5)
    assert grads.h0.shape == (n, d)

    for layer in range(layers):
        w = params.weights[layer]
        for i in range(d):
            for j in range(d):
                want = fd(lambda v, i=i, j=j: w.__setitem__((i, j), v),
                          lambda i=i, j=j: w[i, j])
                assert grads.weights[layer][i, j] == pytest.approx(want, abs=2e-5)

    for j in range(d):
        want = fd(lambda v, j=j: params.attention.__setitem__(j, v),
                  lambda j=j: params.attention[j])
        assert grads.attention[j] == pytest.approx(want, abs=2e-5)

    for j in range(d):
        want = fd(lambda v, j=j: o_k.__setitem__(j, v), lambda j=j: o_k[j])
        assert grads.owner_knowledge[0, j] == pytest.approx(want, abs=2e-5)


def test_backward_dead_relu_blocks_gradient():
    """Zero pre-activations stay zero: the derivative convention at 0 is 0."""
    d = 3
    params = AgcnParams(weights=[np.zeros((d, d))], attention=np.ones(d))
    h0 = np.ones((2, d))
    o_k = np.ones(d)
    out, cache = forward_one(h0, (2, edges()), params, o_k)
    assert np.array_equal(out, np.zeros(d))
    grads = agcn_backward(cache, params, o_k[None, :], np.ones((1, d)))
    assert not grads.weights[0].any()
    assert not grads.h0.any()
    assert not grads.attention.any()


# -- batches --------------------------------------------------------------------

def test_normalize_block_diagonal_matches_blocks():
    rng = np.random.default_rng(7)
    blocks = [random_context(rng, n) for n in (1, 4, 3, 6)]
    # a self-loop triple weighs 2 on the diagonal of A + I
    n, e = blocks[1]
    blocks[1] = (n, np.unique(np.vstack((e, edges((2, 2)))), axis=0))
    s = normalize(*blocks)
    offset = 0
    for n, e in blocks:
        want = normalize((n, e))
        assert np.array_equal(s[offset:offset + n, offset:offset + n], want)
        assert not s[offset:offset + n, offset + n:].any()
        offset += n
    assert s.shape == (offset, offset)
    deg = dense(blocks[1]).sum(axis=1) + 1.0
    assert s[1 + 2, 1 + 2] == pytest.approx(2.0 / deg[2])


def test_normalize_checks_every_block():
    good = (2, edges((0, 1)))
    # (0, 2) lies inside the union but past the second block
    with pytest.raises(ValueError):
        normalize(good, (2, edges((0, 2))))
    with pytest.raises(ValueError):
        normalize(good, (2, edges((-1, 0))))
    with pytest.raises(ValueError):
        normalize(good, (0, edges()))
    with pytest.raises(ValueError):
        normalize()


@pytest.mark.parametrize("layers", [1, 2])
def test_batch_matches_contexts_encoded_alone(layers):
    """Forward rows and the backward h0 and owner rows are bit-identical to
    one-context batches; the summed weight gradients agree to rounding."""
    rng = np.random.default_rng(10 + layers)
    d = 5
    params = make_params(rng, d, layers)
    sizes = (3, 1, 7, 2, 12)
    ctxs = [random_context(rng, n) for n in sizes]
    h0s = [rng.normal(size=(n, d)) for n in sizes]
    o_k = rng.normal(size=(len(sizes), d))
    probe = rng.normal(size=(len(sizes), d))
    out, cache = agcn_forward(np.vstack(h0s), batch_of(*ctxs), params, o_k)
    grads = agcn_backward(cache, params, o_k, probe)
    assert out.shape == (len(sizes), d)
    start = 0
    weight_sum = [np.zeros((d, d)) for _ in range(layers)]
    for b, (ctx, h0) in enumerate(zip(ctxs, h0s)):
        alone, alone_cache = forward_one(h0, ctx, params, o_k[b])
        assert alone.tobytes() == out[b].tobytes()
        one = agcn_backward(alone_cache, params, o_k[b:b + 1], probe[b:b + 1])
        n = h0.shape[0]
        assert grads.h0[start:start + n].tobytes() == one.h0.tobytes()
        assert grads.owner_knowledge[b].tobytes() == one.owner_knowledge[0].tobytes()
        for acc, dw in zip(weight_sum, one.weights):
            acc += dw
        start += n
    for got, want in zip(grads.weights, weight_sum):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("layers", [1, 2])
def test_backward_without_parameter_gradients_equals_the_full_rows(layers):
    """Without parameter gradients, agcn_backward returns the full pass's h0
    and owner gradients bit for bit, and neither reads the layer inputs a
    weight gradient needs nor returns weight or attention gradients."""
    rng = np.random.default_rng(20 + layers)
    d = 8
    params = make_params(rng, d, layers)
    sizes = (3, 70, 1, 12)
    ctxs = [random_context(rng, n) for n in sizes]
    o_k = rng.normal(size=(len(sizes), d))
    probe = rng.normal(size=(len(sizes), d))
    _, cache = agcn_forward(rng.normal(size=(sum(sizes), d)), batch_of(*ctxs), params, o_k)
    full = agcn_backward(cache, params, o_k, probe)
    rows = agcn_backward(replace(cache, pooled=None), params, o_k, probe,
                         param_grads=False)
    assert rows.weights is None and rows.attention is None
    assert rows.h0.tobytes() == full.h0.tobytes()
    assert rows.owner_knowledge.tobytes() == full.owner_knowledge.tobytes()


@pytest.mark.parametrize("d", [8, 16, 32])
def test_block_product_row_does_not_depend_on_the_product(d):
    """Row i of x @ w is the same bits alone and inside products of 1, 37,
    63, 64, 65 and 200 rows, at every offset, and equals x @ w to
    rounding."""
    rng = np.random.default_rng(d)
    x = rng.normal(size=(400, d))
    w = rng.normal(size=(d, d))
    alone = [_block_product(x[i:i + 1], w)[0].tobytes() for i in range(len(x))]
    for n in (1, 37, 63, 64, 65, 200):
        for lo in (0, 1, 63, 64, 130, 400 - n):
            got = _block_product(x[lo:lo + n], w)
            assert got.shape == (n, d) and got.flags.c_contiguous
            np.testing.assert_allclose(got, x[lo:lo + n] @ w, rtol=1e-12, atol=1e-12)
            assert [row.tobytes() for row in got] == alone[lo:lo + n]


# -- buffers --------------------------------------------------------------------

def random_pass(rng, d, layers, sizes):
    """(h0, batch, params, owner rows, grad_out) of a random batch."""
    params = make_params(rng, d, layers)
    batch = batch_of(*[random_context(rng, n) for n in sizes])
    return (rng.normal(size=(batch.rows, d)), batch, params,
            rng.normal(size=(batch.size, d)), rng.normal(size=(batch.size, d)))


@pytest.mark.parametrize("layers", [1, 2])
def test_passes_never_write_into_their_inputs_or_cache(layers):
    """The forward pass leaves h0 and the owner rows as they were; backward
    twice on one cache, with and without parameter gradients, returns the
    same bits and leaves the cache and grad_out as they were."""
    rng = np.random.default_rng(30 + layers)
    h0, batch, params, o_k, probe = random_pass(rng, 8, layers, (3, 70, 1, 12))
    inputs = h0.tobytes(), o_k.tobytes()
    _, cache = agcn_forward(h0, batch, params, o_k)
    assert (h0.tobytes(), o_k.tobytes()) == inputs
    relu = (*cache.hs, cache.relu_attn)
    assert all((a > 0.0).any() and (a == 0.0).any() for a in relu)

    def held():
        return [a.tobytes() for a in (*cache.hs, *cache.pooled, cache.relu_attn,
                                      cache.alpha, o_k, probe)]

    before = held()
    runs = [agcn_backward(cache, params, o_k, probe, param_grads=full)
            for full in (True, False, True, False)]
    assert held() == before
    for got in runs[1:]:
        assert got.h0.tobytes() == runs[0].h0.tobytes()
        assert got.owner_knowledge.tobytes() == runs[0].owner_knowledge.tobytes()
    for dw, again in zip(runs[0].weights, runs[2].weights):
        assert dw.tobytes() == again.tobytes()
    assert runs[0].attention.tobytes() == runs[2].attention.tobytes()


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("d", [16, 32])
def test_backward_allocates_at_most_four_row_arrays(d, layers):
    """One backward pass over 128 contexts peaks at no more than four (n, d)
    float64 arrays above its start: the gathered rows are its working
    buffers, and the masks and products are built in them."""
    rng = np.random.default_rng(d + layers)
    _, batch, params, o_k, probe = pass_ = random_pass(
        rng, d, layers, rng.integers(1, 22, size=128))
    _, cache = agcn_forward(*pass_[:4])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        agcn_backward(cache, params, o_k, probe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / (batch.rows * d * 8) <= 4.0
