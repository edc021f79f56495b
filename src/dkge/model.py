"""Dual embeddings, gated joint representation, and translation scoring.

Every object carries a knowledge embedding (its role in triples) and a
contextual element embedding (its role inside other objects' contexts).  The
joint embedding blends the knowledge embedding with the attentively encoded
context through a logistic gate shared per object class:

    o* = g * o_k + (1 - g) * sg(o),    g = logistic(g_tilde)

Triples are scored with the L1 translation distance f = |h* + r* - t*|_1;
lower is better.  Training minimizes a margin loss over corrupted pairs with
Bernoulli head/tail corruption.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .agcn import AgcnCache, AgcnParams, agcn_backward, agcn_forward
from .contexts import (ContextSubgraph, ContextTable, DEFAULT_CAP,
                       DEFAULT_MAX_MIDPOINTS, ENTITY, RELATION, ObjectRef)
from .errors import IntegrityError
from .kg_store import Snapshot, Triple


@dataclass
class ParameterStore:
    """All trainable state plus the bookkeeping needed to reuse it later."""

    dim: int
    entity_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    ent_know: np.ndarray      # (n_e, d)
    ent_ctx: np.ndarray       # (n_e, d)
    rel_know: np.ndarray      # (n_r, d)
    rel_ctx: np.ndarray       # (n_r, d)
    entity_agcn: AgcnParams
    relation_agcn: AgcnParams
    ent_gate_pre: np.ndarray  # (d,) pre-logistic gate, shared by all entities
    rel_gate_pre: np.ndarray  # (d,)
    cap: int
    seed: int
    max_midpoints: int
    signatures: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def copy(self) -> "ParameterStore":
        return ParameterStore(
            dim=self.dim,
            entity_names=self.entity_names,
            relation_names=self.relation_names,
            ent_know=self.ent_know.copy(),
            ent_ctx=self.ent_ctx.copy(),
            rel_know=self.rel_know.copy(),
            rel_ctx=self.rel_ctx.copy(),
            entity_agcn=self.entity_agcn.copy(),
            relation_agcn=self.relation_agcn.copy(),
            ent_gate_pre=self.ent_gate_pre.copy(),
            rel_gate_pre=self.rel_gate_pre.copy(),
            cap=self.cap,
            seed=self.seed,
            max_midpoints=self.max_midpoints,
            signatures=dict(self.signatures),
        )

    def matches_snapshot(self, snapshot: Snapshot) -> bool:
        return (self.entity_names == snapshot.entity_names
                and self.relation_names == snapshot.relation_names)

    def require_snapshot(self, snapshot: Snapshot) -> None:
        if not self.matches_snapshot(snapshot):
            raise IntegrityError(
                "parameter store dictionaries do not match the snapshot")

    def parameter_count(self) -> int:
        total = (self.ent_know.size + self.ent_ctx.size
                 + self.rel_know.size + self.rel_ctx.size
                 + self.ent_gate_pre.size + self.rel_gate_pre.size)
        for agcn in (self.entity_agcn, self.relation_agcn):
            total += agcn.attention.size + sum(w.size for w in agcn.weights)
        return total

    def model_config(self) -> dict[str, int]:
        """The settings an online update must share with the training run."""
        return {"dim": self.dim,
                "entity_layers": len(self.entity_agcn.weights),
                "relation_layers": len(self.relation_agcn.weights),
                "cap": self.cap, "seed": self.seed,
                "max_midpoints": self.max_midpoints}

    def context_table(self, snapshot: Snapshot) -> ContextTable:
        """Context table reproducing the contexts this store was trained with."""
        self.require_snapshot(snapshot)
        return ContextTable(snapshot, cap=self.cap, seed=self.seed,
                            max_midpoints=self.max_midpoints)


def init_params(snapshot: Snapshot, d: int, rng: np.random.Generator, *,
                entity_layers: int = 1, relation_layers: int = 1,
                cap: int = DEFAULT_CAP, seed: int = 0,
                max_midpoints: int = DEFAULT_MAX_MIDPOINTS) -> ParameterStore:
    """Fresh parameters: embeddings and encoder weights from U(-6/sqrt(d),
    6/sqrt(d)), gates at zero so each blend starts at one half."""
    if d < 1:
        raise ValueError(f"embedding dimension must be >= 1, got {d}")
    bound = 6.0 / np.sqrt(d)

    def draw(*shape):
        return rng.uniform(-bound, bound, size=shape)

    n_e, n_r = snapshot.num_entities, snapshot.num_relations
    ent_know = draw(n_e, d)
    ent_ctx = draw(n_e, d)
    rel_know = draw(n_r, d)
    rel_ctx = draw(n_r, d)
    entity_agcn = AgcnParams([draw(d, d) for _ in range(entity_layers)], draw(d))
    relation_agcn = AgcnParams([draw(d, d) for _ in range(relation_layers)], draw(d))
    return ParameterStore(
        dim=d,
        entity_names=snapshot.entity_names,
        relation_names=snapshot.relation_names,
        ent_know=ent_know, ent_ctx=ent_ctx,
        rel_know=rel_know, rel_ctx=rel_ctx,
        entity_agcn=entity_agcn, relation_agcn=relation_agcn,
        ent_gate_pre=np.zeros(d), rel_gate_pre=np.zeros(d),
        cap=cap, seed=seed, max_midpoints=max_midpoints,
    )


# -- scoring ------------------------------------------------------------------


def joint_embedding(o_know: np.ndarray, sg: np.ndarray,
                    gate_pre: np.ndarray) -> np.ndarray:
    gate = expit(gate_pre)
    return gate * o_know + (1.0 - gate) * sg


def score_triple(h_star: np.ndarray, r_star: np.ndarray,
                 t_star: np.ndarray) -> float:
    return float(np.abs(h_star + r_star - t_star).sum())


def margin_loss(f_pos: float, f_neg: float, margin: float) -> float:
    return max(0.0, f_pos + margin - f_neg)


# -- Bernoulli negative sampling -----------------------------------------------


@dataclass
class RelationStats:
    """Per relation: average tails per head (tph) and heads per tail (hpt)."""

    tph: np.ndarray
    hpt: np.ndarray

    def head_probability(self, r: int) -> float:
        return float(self.tph[r] / (self.tph[r] + self.hpt[r]))


def relation_stats(snapshot: Snapshot) -> RelationStats:
    n_r = snapshot.num_relations
    counts = np.zeros(n_r)
    heads: list[set[int]] = [set() for _ in range(n_r)]
    tails: list[set[int]] = [set() for _ in range(n_r)]
    for h, r, t in snapshot.triples:
        counts[r] += 1
        heads[r].add(h)
        tails[r].add(t)
    tph = counts / np.array([len(s) for s in heads], dtype=np.float64)
    hpt = counts / np.array([len(s) for s in tails], dtype=np.float64)
    return RelationStats(tph=tph, hpt=hpt)


def bernoulli_corrupt(triple: Triple, stats: RelationStats, snapshot: Snapshot,
                      rng: np.random.Generator, max_retries: int = 100) -> Triple:
    """One corrupted triple: head replaced with probability tph/(tph+hpt),
    otherwise tail; the replacement entity is uniform.  Redrawn while the
    corrupted triple exists in the snapshot, up to max_retries."""
    p_head = stats.head_probability(triple.relation)
    candidate = triple
    for _ in range(max_retries + 1):
        replace_head = rng.random() < p_head
        other = int(rng.integers(snapshot.num_entities))
        if replace_head:
            candidate = Triple(other, triple.relation, triple.tail)
        else:
            candidate = Triple(triple.head, triple.relation, other)
        if candidate not in snapshot.triple_set:
            return candidate
    return candidate


# -- forward / backward over triples -------------------------------------------


@dataclass
class ObjectForward:
    ref: ObjectRef
    star: np.ndarray
    sg: np.ndarray
    gate: np.ndarray
    knowledge: np.ndarray
    subgraph: ContextSubgraph
    cache: AgcnCache


@dataclass
class TripleForward:
    triple: Triple
    f: float
    head: ObjectForward
    relation: ObjectForward
    tail: ObjectForward


def context_features(subgraph: ContextSubgraph, store: ParameterStore) -> np.ndarray:
    """Initial feature rows: sum of member contextual element embeddings.

    Entity vertices read from the entity table, relation and relation-path
    vertices from the relation table; one row per vertex.
    """
    h0 = np.zeros((len(subgraph.vertices), store.dim), dtype=np.float64)
    for i, vertex in enumerate(subgraph.vertices):
        table = store.ent_ctx if vertex.kind == ENTITY else store.rel_ctx
        for m in vertex.members:
            h0[i] += table[m]
    return h0


def object_forward(ref: ObjectRef, store: ParameterStore,
                   contexts: ContextTable) -> ObjectForward:
    kind, obj = ref
    if kind == ENTITY:
        know = store.ent_know[obj]
        agcn = store.entity_agcn
        gate_pre = store.ent_gate_pre
    else:
        know = store.rel_know[obj]
        agcn = store.relation_agcn
        gate_pre = store.rel_gate_pre
    sub = contexts.get(ref)
    h0 = context_features(sub, store)
    sg, cache = agcn_forward(h0, sub.adjacency, agcn, know)
    gate = expit(gate_pre)
    star = gate * know + (1.0 - gate) * sg
    return ObjectForward(ref=ref, star=star, sg=sg, gate=gate, knowledge=know,
                         subgraph=sub, cache=cache)


def forward_triple(triple: Triple, store: ParameterStore, contexts: ContextTable,
                   memo: dict[ObjectRef, ObjectForward] | None = None) -> TripleForward:
    """Score one triple; ``memo`` shares per-object work inside a batch."""
    if memo is None:
        memo = {}

    def get(ref: ObjectRef) -> ObjectForward:
        fwd = memo.get(ref)
        if fwd is None:
            fwd = object_forward(ref, store, contexts)
            memo[ref] = fwd
        return fwd

    head = get((ENTITY, triple.head))
    rel = get((RELATION, triple.relation))
    tail = get((ENTITY, triple.tail))
    f = score_triple(head.star, rel.star, tail.star)
    return TripleForward(triple=triple, f=f, head=head, relation=rel, tail=tail)


class GradBuffer:
    """Dense gradient accumulators matching the store's parameter layout."""

    def __init__(self, store: ParameterStore):
        self.ent_know = np.zeros_like(store.ent_know)
        self.ent_ctx = np.zeros_like(store.ent_ctx)
        self.rel_know = np.zeros_like(store.rel_know)
        self.rel_ctx = np.zeros_like(store.rel_ctx)
        self.ent_weights = [np.zeros_like(w) for w in store.entity_agcn.weights]
        self.rel_weights = [np.zeros_like(w) for w in store.relation_agcn.weights]
        self.ent_attention = np.zeros_like(store.entity_agcn.attention)
        self.rel_attention = np.zeros_like(store.relation_agcn.attention)
        self.ent_gate_pre = np.zeros_like(store.ent_gate_pre)
        self.rel_gate_pre = np.zeros_like(store.rel_gate_pre)


def object_backward(fwd: ObjectForward, d_star: np.ndarray, store: ParameterStore,
                    buffer: GradBuffer) -> None:
    """Accumulate gradients of (d_star . o*) into the buffer.

    The knowledge embedding receives both the gate path and the attention
    path; context member embeddings collect the rows of the h0 gradient.
    """
    kind, obj = fwd.ref
    gate = fwd.gate
    d_know = d_star * gate
    d_sg = d_star * (1.0 - gate)
    d_gate_pre = d_star * (fwd.knowledge - fwd.sg) * gate * (1.0 - gate)

    agcn = store.entity_agcn if kind == ENTITY else store.relation_agcn
    grads = agcn_backward(fwd.cache, agcn, fwd.knowledge, d_sg)

    if kind == ENTITY:
        buffer.ent_know[obj] += d_know + grads.owner_knowledge
        buffer.ent_gate_pre += d_gate_pre
        buffer.ent_attention += grads.attention
        for acc, dw in zip(buffer.ent_weights, grads.weights):
            acc += dw
    else:
        buffer.rel_know[obj] += d_know + grads.owner_knowledge
        buffer.rel_gate_pre += d_gate_pre
        buffer.rel_attention += grads.attention
        for acc, dw in zip(buffer.rel_weights, grads.weights):
            acc += dw

    for vertex, row in zip(fwd.subgraph.vertices, grads.h0):
        target = buffer.ent_ctx if vertex.kind == ENTITY else buffer.rel_ctx
        for m in vertex.members:
            target[m] += row


def batch_loss(pairs: list[tuple[Triple, Triple]], store: ParameterStore,
               contexts: ContextTable, margin: float,
               buffer: GradBuffer | None = None) -> float:
    """Summed margin loss over (positive, corrupted) pairs.

    With a buffer, also accumulates the gradient of the summed loss.  Each
    distinct object is encoded once per call and its upstream gradients are
    merged before the single backward pass.
    """
    memo: dict[ObjectRef, ObjectForward] = {}
    d_star: dict[ObjectRef, np.ndarray] = {}
    total = 0.0
    for pos, neg in pairs:
        fwd_pos = forward_triple(pos, store, contexts, memo)
        fwd_neg = forward_triple(neg, store, contexts, memo)
        loss = margin_loss(fwd_pos.f, fwd_neg.f, margin)
        total += loss
        if buffer is None or loss <= 0.0:
            continue
        sign_pos = np.sign(fwd_pos.head.star + fwd_pos.relation.star - fwd_pos.tail.star)
        sign_neg = np.sign(fwd_neg.head.star + fwd_neg.relation.star - fwd_neg.tail.star)
        for fwd, sgn in ((fwd_pos, sign_pos), (fwd_neg, -sign_neg)):
            for part, direction in ((fwd.head, 1.0), (fwd.relation, 1.0), (fwd.tail, -1.0)):
                acc = d_star.get(part.ref)
                if acc is None:
                    acc = d_star[part.ref] = np.zeros(store.dim)
                acc += sgn * direction
    if buffer is not None:
        for ref, grad in d_star.items():
            object_backward(memo[ref], grad, store, buffer)
    return total
