"""Attentive graph convolution over a context subgraph.

Forward pass, for a context with feature rows h0 and adjacency A:

    S    = D^{-1/2} (A + I) D^{-1/2}        with D the degree matrix of A + I
    H^l  = relu(S H^{l-1} W^l)              l = 1..x, x in {1, 2}
    s_i  = u . relu(v_i * o_k)              v_i = rows of H^x, * elementwise
    a    = softmax over the vertices of s
    out  = sum_i a_i v_i

The owner's knowledge embedding o_k steers the attention.  The backward
pass is derived by hand and returns gradients for h0, the layer weights,
the attention vector u, and o_k.  relu'(0) is taken as 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AgcnParams:
    """Weights of one encoder instance: x square (d, d) matrices plus u."""

    weights: list[np.ndarray]
    attention: np.ndarray

    def __post_init__(self):
        if not 1 <= len(self.weights) <= 2:
            raise ValueError(f"expected 1 or 2 layers, got {len(self.weights)}")
        d = self.attention.shape[0]
        for w in self.weights:
            if w.shape != (d, d):
                raise ValueError(f"layer weight shape {w.shape} != ({d}, {d})")

    @property
    def dim(self) -> int:
        return self.attention.shape[0]

    def copy(self) -> "AgcnParams":
        return AgcnParams([w.copy() for w in self.weights], self.attention.copy())


@dataclass
class AgcnCache:
    """Forward intermediates needed by the backward pass."""

    norm_adj: np.ndarray          # (m, m)
    hs: list[np.ndarray]          # x + 1 arrays of shape (m, d): h0 .. H^x
    pooled: list[np.ndarray]      # x arrays S @ H^{l-1}
    relu_attn: np.ndarray         # (m, d) relu(v_i * o_k)
    alpha: np.ndarray             # (m,)


@dataclass
class AgcnGrads:
    h0: np.ndarray
    weights: list[np.ndarray]
    attention: np.ndarray
    owner_knowledge: np.ndarray


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of A + I.

    Requires a square, symmetric matrix with entries in {0, 1}.  A zero row
    still gets degree 1 from the added self-connection.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be symmetric")
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError("adjacency entries must be 0 or 1")
    a_hat = a + np.eye(a.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def agcn_forward(h0: np.ndarray, adjacency: np.ndarray, params: AgcnParams,
                 owner_knowledge: np.ndarray) -> tuple[np.ndarray, AgcnCache]:
    """Encode a context of n >= 1 vertices into a d-vector; returns
    (embedding, cache)."""
    n, d = h0.shape
    if n < 1:
        raise ValueError("a context needs at least one vertex")
    if adjacency.shape != (n, n):
        raise ValueError(f"adjacency shape {adjacency.shape} != ({n}, {n})")
    if owner_knowledge.shape != (d,) or params.dim != d:
        raise ValueError("dimension mismatch between features and parameters")

    s = normalize_adjacency(adjacency)
    hs = [h0]
    pooled = []
    for w in params.weights:
        p = s @ hs[-1]
        pooled.append(p)
        hs.append(np.maximum(p @ w, 0.0))
    v = hs[-1]
    relu_attn = np.maximum(v * owner_knowledge[None, :], 0.0)
    scores = relu_attn @ params.attention
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    alpha = exp / exp.sum()
    out = alpha @ v
    cache = AgcnCache(norm_adj=s, hs=hs, pooled=pooled, relu_attn=relu_attn,
                      alpha=alpha)
    return out, cache


def agcn_backward(cache: AgcnCache, params: AgcnParams, owner_knowledge: np.ndarray,
                  grad_out: np.ndarray) -> AgcnGrads:
    """Gradients of (grad_out . output) w.r.t. h0, weights, u, and o_k."""
    v = cache.hs[-1]
    alpha = cache.alpha
    relu_attn = cache.relu_attn

    # attention pooling: out = sum_i alpha_i v_i
    d_alpha = v @ grad_out
    d_scores = alpha * (d_alpha - alpha @ d_alpha)
    d_attention = relu_attn.T @ d_scores
    d_pre = (d_scores[:, None] * params.attention[None, :]) * (relu_attn > 0.0)
    d_owner = (d_pre * v).sum(axis=0)
    d_v = alpha[:, None] * grad_out[None, :] + d_pre * owner_knowledge[None, :]

    # convolution layers, top down
    d_weights: list[np.ndarray] = [np.empty(0)] * len(params.weights)
    d_h = d_v
    for l in range(len(params.weights) - 1, -1, -1):
        d_z = d_h * (cache.hs[l + 1] > 0.0)
        d_weights[l] = cache.pooled[l].T @ d_z
        d_h = cache.norm_adj @ (d_z @ params.weights[l].T)

    return AgcnGrads(h0=d_h, weights=d_weights, attention=d_attention,
                     owner_knowledge=d_owner)
