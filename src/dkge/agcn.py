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
``np.add.reduceat``.

The dense per-vertex products, the forward ``P W`` and the backward
``d_z W^T``, go through ``_block_product``, which multiplies in BLAS calls
of one fixed shape, _BLOCK rows at a time (the fixed micro-kernel shapes of
Goto and van de Geijn, "Anatomy of High-Performance Matrix Multiplication",
ACM TOMS 2008): the full blocks are a view of the input and only the tail
block is zero-padded.  A BLAS product's rows can depend on how many rows it
has (numpy sends one row to gemv, and gemm picks its kernels by shape); a
call of one fixed shape computes every row the same way, so a row's bits
depend on that row alone, at about a tenth of the cost of ``np.einsum``'s
sequential sums, which give the same promise.  The scores ``. u`` still
use ``np.einsum``, which is cheap for a vector.  A context's encoding is
therefore bit-identical whatever else shares its batch, and so are its rows
of the h0 and owner gradients.

The backward pass is derived by hand and returns gradients for h0, each
owner's o_k, and, unless asked not to, the layer weights and attention
vector u summed over the batch.  relu'(0) is taken as 0.

A pass computes in arrays it owns.  The forward pass allocates, per layer,
the sparse product S H (kept as ``AgcnCache.pooled``) and the padded block
product, whose ReLU it applies in place; ``AgcnCache.hs`` holds views of
the first n rows of those 64-row-padded blocks.  It builds relu(v_i * o_k)
in place in the gathered owner rows, which fancy indexing copies.  The
backward pass gathers grad_out's and the owners' rows the same way: the
first buffer turns into d_v in place, then into the top layer's d_z;
the second holds d_pre * o_k and then d_pre * v; the score gradient d_pre
is built in the buffer that first held v * grad.  Each later d_z is masked
in place in the layer above's fresh sparse product; a backward pass peaks
at about three (n, d) arrays above what it started with.  Every float
operation keeps its operands and order, so the in-place steps give the
bits of the expressions they replace.  Neither pass writes into h0,
owner_knowledge, grad_out or the cache, so backward can run twice on one
cache.
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
    (i, j), i <= j, index pairs in ascending order, stacked in context order
    in the (m, 2) array ``edges``.  Degrees are integer counts, so S is exact
    and exactly symmetric; a vertex without edges still gets degree 1 from
    the added self-connection, and a self-loop weighs 2 on the diagonal.  Row i's
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
    # the pairs are in ascending order, so each row lists its lower entries
    # (j, i), its diagonal, then its upper entries (i, j) in column order,
    # and a stable sort by row sorts by (row, column)
    rows = np.concatenate((j, diag, i))
    cols = np.concatenate((i, diag, j))
    a_hat = np.concatenate((np.ones(i.size),
                            1.0 + np.bincount(pairs[loop, 0], minlength=n),
                            np.ones(i.size)))
    order = np.argsort(rows, kind="stable")
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


# Rows of every BLAS call of ``_block_product``.
_BLOCK = 64


def _block_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for an (n, d) ``x``, in (_BLOCK, d) @ (d, e) BLAS calls.

    numpy's matmul runs one gemm per block of the stacked full blocks, which
    are a reshape of a C-contiguous ``x``, with no copy; only the tail block
    is zero-padded.  Every call has one shape, so row i of the result
    depends only on row i of ``x`` and on ``w``.  Returns the first n rows
    of the padded product, C-contiguous.
    """
    n, d = x.shape
    e = w.shape[1]
    full = n - n % _BLOCK
    out = np.empty((-(-n // _BLOCK) * _BLOCK, e))
    np.matmul(x[:full].reshape(-1, _BLOCK, d), w,
              out=out[:full].reshape(-1, _BLOCK, e))
    if full < n:
        tail = np.zeros((_BLOCK, d))
        tail[:n - full] = x[full:]
        np.matmul(tail, w, out=out[full:])
    return out[:n]


@dataclass
class AgcnCache:
    """Forward intermediates the backward pass reads."""

    batch: ContextBatch
    hs: list[np.ndarray]          # x (n, d) views of padded blocks: H^1 .. H^x
    pooled: list[np.ndarray]      # x arrays S @ H^{l-1}
    relu_attn: np.ndarray         # (n, d) relu(v_i * o_k)
    alpha: np.ndarray             # (n,)


@dataclass
class AgcnGrads:
    h0: np.ndarray                        # (n, d)
    owner_knowledge: np.ndarray           # (B, d)
    weights: list[np.ndarray] | None      # summed over the batch
    attention: np.ndarray | None          # summed over the batch


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

    hs = []
    pooled = []
    v = h0
    for w in params.weights:
        p = batch.norm_adj @ v
        pooled.append(p)
        v = _block_product(p, w)
        np.maximum(v, 0.0, out=v)
        hs.append(v)
    # the gathered owner rows are a copy: relu(v_i * o_k) is built in them
    relu_attn = owner_knowledge[batch.segment]
    relu_attn *= v
    np.maximum(relu_attn, 0.0, out=relu_attn)
    alpha = batch.softmax(np.einsum("nd,d->n", relu_attn, params.attention,
                                    optimize=False))
    out = batch.pool(alpha[:, None] * v)
    return out, AgcnCache(batch=batch, hs=hs, pooled=pooled, relu_attn=relu_attn,
                          alpha=alpha)


def agcn_backward(cache: AgcnCache, params: AgcnParams, owner_knowledge: np.ndarray,
                  grad_out: np.ndarray, *, param_grads: bool = True) -> AgcnGrads:
    """Gradients of sum_b (grad_out[b] . output[b]) w.r.t. h0, each o_k,
    and, with ``param_grads``, the weights and u; without it those two are
    None and are not computed.  The h0 and o_k gradients are the same
    either way."""
    batch = cache.batch
    v = cache.hs[-1]
    alpha = cache.alpha
    relu_attn = cache.relu_attn
    # gathered rows are copies: grad and owner below are this pass's own
    grad = grad_out[batch.segment]

    # attention pooling: out_b = sum_{i in b} alpha_i v_i
    d_pre = v * grad
    d_alpha = d_pre.sum(axis=1)
    d_scores = alpha * (d_alpha - batch.pool(alpha * d_alpha)[batch.segment])
    # d_pre's buffer, once d_alpha is summed, holds the score gradient
    np.multiply(d_scores[:, None], params.attention[None, :], out=d_pre)
    d_pre *= relu_attn > 0.0
    # d_v = alpha_i grad_i + d_pre_i * o_k, accumulated in grad
    owner = owner_knowledge[batch.segment]
    owner *= d_pre
    grad *= alpha[:, None]
    grad += owner
    d_owner = batch.pool(np.multiply(d_pre, v, out=owner))
    d_h = grad
    del owner, d_pre, grad

    # convolution layers, top down; S is symmetric.  The top d_z is built
    # in d_v's buffer, each lower one in the layer above's sparse product.
    d_weights = [np.empty(0)] * len(params.weights) if param_grads else None
    for l in range(len(params.weights) - 1, -1, -1):
        d_z = d_h
        d_z *= cache.hs[l] > 0.0
        if param_grads:
            d_weights[l] = cache.pooled[l].T @ d_z
        d_h = batch.norm_adj @ _block_product(
            d_z, np.ascontiguousarray(params.weights[l].T))

    return AgcnGrads(h0=d_h, owner_knowledge=d_owner, weights=d_weights,
                     attention=relu_attn.T @ d_scores if param_grads else None)
