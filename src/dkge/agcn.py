"""Attentive graph convolution over a batch of context subgraphs.

Forward pass, for one context with feature rows h0 and adjacency A:

    S    = D^{-1/2} (A + I) D^{-1/2}        with D the degree matrix of A + I
    H^l  = relu(S H^{l-1} W^l)              l = 1..x, x in {1, 2}
    s_i  = u . relu(v_i * o_k)              v_i = rows of H^x, * elementwise
    a    = softmax over the vertices of s
    out  = sum_i a_i v_i

The owner's knowledge embedding o_k steers the attention.  A context comes
as its vertex count and its edges, index pairs (i, j) with i <= j
(``contexts.ContextSubgraph``); A holds 1 at (i, j) and (j, i) for each.

A batch encodes B contexts at once as their disjoint union: the feature rows
are stacked, context b owning one contiguous segment of rows, and the S
matrices form one block-diagonal CSR matrix, so each layer is a single
sparse product.  ``normalize_adjacency`` builds S from edges; a row of it
depends only on its own context, so the context table computes each
context's S entries once, when it builds the context, and an encoder pass
only gathers them (``contexts.ContextTable.gather``).  The softmax and the
pooling run per segment with ``np.maximum.reduceat`` and
``np.add.reduceat``.  The dense per-vertex products of the forward pass
(``P W`` and the scores ``. u``) use ``np.einsum``, whose rows do not depend
on how many rows are stacked, where a BLAS product's rows do; a context's
encoding is therefore bit-identical whatever else shares its batch.

The backward pass is derived by hand and returns gradients for h0, each
owner's o_k, and the layer weights and attention vector u summed over the
batch.  relu'(0) is taken as 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse


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


def normalize_adjacency(sizes: Sequence[int], edges: np.ndarray,
                        edge_counts: Sequence[int]) -> sparse.csr_array:
    """Block-diagonal S = D^{-1/2} (A + I) D^{-1/2} of a batch of contexts.

    Context b has ``sizes[b] >= 1`` vertices and ``edge_counts[b]`` unique
    (i, j), i <= j, index pairs, stacked in context order in the (m, 2) array
    ``edges``.  Degrees are integer counts, so S is exact and exactly
    symmetric; a vertex without edges still gets degree 1 from the added
    self-connection, and a self-loop weighs 2 on the diagonal.  Row i's
    entries depend on its own context only, whatever shares the batch.
    """
    if not len(sizes):
        raise ValueError("a batch needs at least one context")
    sizes = np.asarray(sizes, dtype=np.intp)
    if sizes.min() < 1:
        raise ValueError("a context needs at least one vertex")
    counts = np.asarray(edge_counts, dtype=np.intp)
    pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    if not np.all((pairs >= 0) & (pairs < np.repeat(sizes, counts)[:, None])):
        raise ValueError("an edge indexes a vertex outside its context")
    pairs = pairs + np.repeat(np.cumsum(sizes) - sizes, counts)[:, None]
    n = int(sizes.sum())
    loop = pairs[:, 0] == pairs[:, 1]
    i, j = pairs[~loop].T
    diag = np.arange(n)
    rows = np.concatenate((i, j, diag))
    cols = np.concatenate((j, i, diag))
    a_hat = np.concatenate((np.ones(2 * i.size),
                            1.0 + np.bincount(pairs[loop, 0], minlength=n)))
    order = np.lexsort((cols, rows))
    rows, cols, a_hat = rows[order], cols[order], a_hat[order]
    indptr = np.searchsorted(rows, np.arange(n + 1))
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(a_hat, indptr[:-1]))
    return sparse.csr_array((a_hat * inv_sqrt[rows] * inv_sqrt[cols], cols, indptr),
                            shape=(n, n))


@dataclass
class ContextBatch:
    """Disjoint union of B contexts: block-diagonal S plus row segments.

    Context b owns the rows and columns of ``norm_adj`` from ``starts[b]``
    up to the next context's first row.
    """

    norm_adj: sparse.csr_array    # (n, n) block-diagonal S
    starts: np.ndarray            # (B,) first row of each context
    segment: np.ndarray           # (n,) context of each row

    @property
    def size(self) -> int:
        return self.starts.shape[0]

    @property
    def rows(self) -> int:
        return self.segment.shape[0]

    def softmax(self, scores: np.ndarray) -> np.ndarray:
        top = np.maximum.reduceat(scores, self.starts)
        exp = np.exp(scores - top[self.segment])
        return exp / np.add.reduceat(exp, self.starts)[self.segment]

    def pool(self, values: np.ndarray) -> np.ndarray:
        """Per-context sums of the rows of ``values``."""
        return np.add.reduceat(values, self.starts, axis=0)


@dataclass
class AgcnCache:
    """Forward intermediates needed by the backward pass."""

    batch: ContextBatch
    hs: list[np.ndarray]          # x + 1 arrays of shape (n, d): h0 .. H^x
    pooled: list[np.ndarray]      # x arrays S @ H^{l-1}
    alpha: np.ndarray             # (n,)


@dataclass
class AgcnGrads:
    h0: np.ndarray                # (n, d)
    weights: list[np.ndarray]     # summed over the batch
    attention: np.ndarray         # summed over the batch
    owner_knowledge: np.ndarray   # (B, d)


def agcn_forward(h0: np.ndarray, batch: ContextBatch, params: AgcnParams,
                 owner_knowledge: np.ndarray) -> tuple[np.ndarray, AgcnCache]:
    """Encode each context of the batch into a d-vector.

    ``h0`` stacks the feature rows of all contexts and ``owner_knowledge``
    holds one row per context; returns ((B, d) embeddings, cache).
    """
    n, d = h0.shape
    if n != batch.rows:
        raise ValueError(f"{n} feature rows for a batch of {batch.rows} vertices")
    if owner_knowledge.shape != (batch.size, d) or params.dim != d:
        raise ValueError("dimension mismatch between features and parameters")

    hs = [h0]
    pooled = []
    for w in params.weights:
        p = batch.norm_adj @ hs[-1]
        pooled.append(p)
        hs.append(np.maximum(np.einsum("nd,de->ne", p, w, optimize=False), 0.0))
    v = hs[-1]
    relu_attn = np.maximum(v * owner_knowledge[batch.segment], 0.0)
    alpha = batch.softmax(np.einsum("nd,d->n", relu_attn, params.attention,
                                    optimize=False))
    out = batch.pool(alpha[:, None] * v)
    return out, AgcnCache(batch=batch, hs=hs, pooled=pooled, alpha=alpha)


def agcn_backward(cache: AgcnCache, params: AgcnParams, owner_knowledge: np.ndarray,
                  grad_out: np.ndarray) -> AgcnGrads:
    """Gradients of sum_b (grad_out[b] . output[b]) w.r.t. h0, weights, u,
    and each o_k."""
    batch = cache.batch
    v = cache.hs[-1]
    alpha = cache.alpha
    owner = owner_knowledge[batch.segment]
    grad = grad_out[batch.segment]
    relu_attn = np.maximum(v * owner, 0.0)

    # attention pooling: out_b = sum_{i in b} alpha_i v_i
    d_alpha = (v * grad).sum(axis=1)
    d_scores = alpha * (d_alpha - batch.pool(alpha * d_alpha)[batch.segment])
    d_attention = relu_attn.T @ d_scores
    d_pre = (d_scores[:, None] * params.attention[None, :]) * (relu_attn > 0.0)
    d_owner = batch.pool(d_pre * v)
    d_v = alpha[:, None] * grad + d_pre * owner

    # convolution layers, top down; S is symmetric
    d_weights: list[np.ndarray] = [np.empty(0)] * len(params.weights)
    d_h = d_v
    for l in range(len(params.weights) - 1, -1, -1):
        d_z = d_h * (cache.hs[l + 1] > 0.0)
        d_weights[l] = cache.pooled[l].T @ d_z
        d_h = batch.norm_adj @ (d_z @ params.weights[l].T)

    return AgcnGrads(h0=d_h, weights=d_weights, attention=d_attention,
                     owner_knowledge=d_owner)
