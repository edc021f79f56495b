"""Attentive graph convolution: normalization, forward, hand-derived backward."""
import numpy as np
import pytest

from dkge.agcn import (AgcnParams, agcn_backward, agcn_forward,
                       normalize_adjacency)


def make_params(rng, d, layers):
    return AgcnParams(
        weights=[rng.normal(size=(d, d)) * 0.5 for _ in range(layers)],
        attention=rng.normal(size=d))


def random_adjacency(rng, n):
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                a[i, j] = a[j, i] = 1.0
    return a


# -- normalization ------------------------------------------------------------

def test_normalize_path_graph_oracle():
    """3-vertex path: degrees with self-loops are 2,3,2."""
    a = np.array([[0., 1., 0.], [1., 0., 1.], [0., 1., 0.]])
    s = normalize_adjacency(a)
    expected = np.array([
        [1 / 2, 1 / np.sqrt(6), 0],
        [1 / np.sqrt(6), 1 / 3, 1 / np.sqrt(6)],
        [0, 1 / np.sqrt(6), 1 / 2]])
    assert np.allclose(s, expected, atol=1e-12)


def test_normalize_isolated_vertex():
    s = normalize_adjacency(np.zeros((1, 1)))
    assert s.shape == (1, 1)
    assert s[0, 0] == 1.0  # self-loop only


def test_normalize_is_exactly_symmetric():
    rng = np.random.default_rng(0)
    a = random_adjacency(rng, 7)
    s = normalize_adjacency(a)
    assert np.array_equal(s, s.T)


def test_normalize_rejects_asymmetric():
    a = np.array([[0., 1.], [0., 0.]])
    with pytest.raises(ValueError):
        normalize_adjacency(a)


def test_normalize_rejects_nonbinary():
    with pytest.raises(ValueError):
        normalize_adjacency(np.array([[0.0, 0.5], [0.5, 0.0]]))


# -- forward ------------------------------------------------------------------

def test_forward_single_vertex_oracle():
    """Owner-only context: attention collapses to the single vertex."""
    rng = np.random.default_rng(1)
    d = 5
    params = make_params(rng, d, 1)
    h0 = rng.normal(size=(1, d))
    adj = np.zeros((1, 1))
    o_k = rng.normal(size=d)
    out, cache = agcn_forward(h0, adj, params, o_k)
    v = np.maximum(h0[0] @ params.weights[0], 0.0)  # S is the identity here
    assert np.allclose(out, v, atol=1e-12)
    assert np.allclose(cache.alpha, [1.0])


def test_forward_two_vertices_hand_computed():
    d = 2
    params = AgcnParams(weights=[np.eye(2)], attention=np.array([1.0, 1.0]))
    h0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    o_k = np.array([1.0, 1.0])
    out, cache = agcn_forward(h0, adj, params, o_k)
    # S = [[.5,.5],[.5,.5]], H1 = S @ H0 = [[.5,.5],[.5,.5]], scores equal
    assert np.allclose(cache.hs[1], [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(cache.alpha, [0.5, 0.5])
    assert np.allclose(out, [0.5, 0.5])


def test_forward_attention_prefers_aligned_vertex():
    d = 3
    params = AgcnParams(weights=[np.eye(3)], attention=np.ones(3))
    h0 = np.array([[1.0, 1.0, 1.0], [0.1, 0.1, 0.1]])
    adj = np.zeros((2, 2))
    o_k = np.ones(3)
    out, cache = agcn_forward(h0, adj, params, o_k)
    assert cache.alpha[0] > cache.alpha[1]


def test_forward_rejects_bad_shapes():
    rng = np.random.default_rng(4)
    d = 3
    params = make_params(rng, d, 1)
    with pytest.raises(ValueError):
        agcn_forward(np.zeros((0, d)), np.zeros((0, 0)), params, np.zeros(d))
    with pytest.raises(ValueError):
        agcn_forward(rng.normal(size=(2, d)), np.zeros((3, 3)), params, np.zeros(d))
    with pytest.raises(ValueError):
        agcn_forward(rng.normal(size=(2, d)), np.zeros((2, 2)), params, np.zeros(d + 1))


def test_params_validation():
    with pytest.raises(ValueError):
        AgcnParams(weights=[], attention=np.zeros(3))
    with pytest.raises(ValueError):
        AgcnParams(weights=[np.zeros((3, 3))] * 3, attention=np.zeros(3))
    with pytest.raises(ValueError):
        AgcnParams(weights=[np.zeros((3, 4))], attention=np.zeros(3))


# -- backward -----------------------------------------------------------------

def scalar_out(h0, adj, params, o_k, probe):
    out, _ = agcn_forward(h0, adj, params, o_k)
    return float(out @ probe)


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_matches_finite_differences(layers, seed):
    rng = np.random.default_rng(seed)
    d, n = 4, 5
    params = make_params(rng, d, layers)
    h0 = rng.normal(size=(n, d))
    adj = random_adjacency(rng, n)
    o_k = rng.normal(size=d)
    probe = rng.normal(size=d)

    out, cache = agcn_forward(h0, adj, params, o_k)
    grads = agcn_backward(cache, params, o_k, probe)
    eps = 1e-6

    def fd(write, read):
        orig = read()
        write(orig + eps)
        up = scalar_out(h0, adj, params, o_k, probe)
        write(orig - eps)
        down = scalar_out(h0, adj, params, o_k, probe)
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
        assert grads.owner_knowledge[j] == pytest.approx(want, abs=2e-5)


def test_backward_dead_relu_blocks_gradient():
    """Zero pre-activations stay zero: the derivative convention at 0 is 0."""
    d = 3
    params = AgcnParams(weights=[np.zeros((d, d))], attention=np.ones(d))
    h0 = np.ones((2, d))
    adj = np.zeros((2, 2))
    o_k = np.ones(d)
    out, cache = agcn_forward(h0, adj, params, o_k)
    assert np.array_equal(out, np.zeros(d))
    grads = agcn_backward(cache, params, o_k, np.ones(d))
    assert not grads.weights[0].any()
    assert not grads.h0.any()
    assert not grads.attention.any()
