"""Dual embeddings, gated joint representation, and translation scoring.

Every object carries a knowledge embedding (its role in triples) and a
contextual element embedding (its role inside other objects' contexts).  The
joint embedding blends the knowledge embedding with the attentively encoded
context through a logistic gate shared per object class:

    o* = g * o_k + (1 - g) * sg(o),    g = logistic(g_tilde)

Triples are scored with the L1 translation distance f = |h* + r* - t*|_1;
lower is better.  Training minimizes a margin loss over corrupted pairs with
Bernoulli head/tail corruption.  ``corrupt_rows`` draws the negatives of a
whole batch of id rows as arrays, testing them against the snapshot's sorted
triple codes; ``bernoulli_corrupt`` is the one-triple reference definition.

Objects are encoded in batches.  ``encode`` gathers the stored contexts of
objects of one kind from the context table, their member rows and their
normalised S entries as one block-diagonal graph
(``contexts.ContextTable.gather``), and runs the encoder once over it (see
``agcn``); a pass builds no context and computes no S unless an object's
context was never built.  Passes are cut by capped context rows, not by
objects: a pass stacks about PASS_ROWS rows, however small or large its
contexts.  ``batch_loss`` encodes a batch's distinct objects in such
passes per kind (its relations in one), scores all pairs as arrays, and
runs one backward pass per encoder pass.  ``object_forward`` is a pass of
one, and an object's joint embedding is bit-identical whichever pass
encodes it.

Online SGD freezes the encoders, attention vectors, gates and every row
but those of the update region, so most joint rows cannot move.  Given
``FixedRows`` (a joint table of every object and the ids of the objects
whose rows can move), ``batch_loss`` reads the other objects' rows from the
table and encodes and back-propagates only the movable ones, into a
``GradBuffer`` that holds the four row tables only; those backward passes
compute no encoder, attention or gate gradient.

A store can carry the joint embedding of every object, encoded on one
snapshot and keyed by that snapshot's digest; ``joint_table`` serves those
rows for that snapshot and encodes everything afresh for any other.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.special import expit

from .agcn import AgcnCache, AgcnParams, agcn_backward, agcn_forward
from .contexts import (ContextPass, ContextTable, DEFAULT_CAP,
                       DEFAULT_MAX_MIDPOINTS, ENTITY, RELATION, ObjectRef)
from .errors import ConfigError, IntegrityError
from .kg_store import Snapshot, Triple, triple_codes


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
    # joint embeddings of every object under these parameters, encoded on
    # the snapshot whose digest is joint_digest; None until train or update
    # fills them, and never set while the parameters still move
    ent_star: np.ndarray | None = None   # (n_e, d)
    rel_star: np.ndarray | None = None   # (n_r, d)
    joint_digest: str | None = None

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def copy(self) -> "ParameterStore":
        return copy.deepcopy(self)

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

    def require_model_config(self, settings: Mapping[str, object]) -> None:
        """Raise ConfigError naming the first model setting that differs."""
        for key, stored in self.model_config().items():
            if settings[key] != stored:
                raise ConfigError(f"config {key}={settings[key]} does not "
                                  f"match checkpoint {key}={stored}")

    def context_table(self, snapshot: Snapshot) -> ContextTable:
        """Context table reproducing the contexts this store was trained with."""
        self.require_snapshot(snapshot)
        return ContextTable(snapshot, cap=self.cap, seed=self.seed,
                            max_midpoints=self.max_midpoints)

    def attach_joint(self, joint: JointCache, snapshot: Snapshot) -> None:
        """Keep joint embeddings encoded with the current parameters on
        ``snapshot``; ``joint_table`` serves them for that snapshot only."""
        self.require_snapshot(snapshot)
        self.ent_star, self.rel_star = joint
        self.joint_digest = snapshot.digest


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
    n_e, n_r = snapshot.num_entities, snapshot.num_relations
    h, r, t = snapshot.triple_ids.T
    counts = np.bincount(r, minlength=n_r).astype(np.float64)

    def distinct(ends):   # distinct (relation, entity) pairs per relation
        return np.bincount(np.unique(r * n_e + ends) // n_e, minlength=n_r)

    return RelationStats(tph=counts / distinct(h), hpt=counts / distinct(t))


def bernoulli_corrupt(triple: Triple, stats: RelationStats, snapshot: Snapshot,
                      rng: np.random.Generator, max_retries: int = 100) -> Triple | None:
    """One corrupted triple: head replaced with probability tph/(tph+hpt),
    otherwise tail; the replacement entity is uniform.  Redrawn while the
    corrupted triple exists in the snapshot, up to max_retries; None when
    every draw was a known triple."""
    p_head = stats.head_probability(triple.relation)
    for _ in range(max_retries + 1):
        replace_head = rng.random() < p_head
        other = int(rng.integers(snapshot.num_entities))
        if replace_head:
            candidate = Triple(other, triple.relation, triple.tail)
        else:
            candidate = Triple(triple.head, triple.relation, other)
        if not snapshot.has_triple(candidate):
            return candidate
    return None


def corrupt_rows(rows: np.ndarray, stats: RelationStats, snapshot: Snapshot,
                 rng: np.random.Generator, max_retries: int = 100) -> np.ndarray:
    """``bernoulli_corrupt`` for a batch of (n, 3) id rows at once.

    Returns a (P, 2, 3) int64 array of (positive, negative) rows, in batch
    order.  Each round draws the head/tail choices, then the replacement
    entities, of the rows still open, and tests the candidates' codes
    against ``snapshot.sorted_codes``; only the collisions are redrawn, for
    at most max_retries + 1 rounds.  A row still colliding after the last
    round is left out, so P <= n.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n_e, n_r = snapshot.num_entities, snapshot.num_relations
    known = snapshot.sorted_codes
    p_head = (stats.tph / (stats.tph + stats.hpt))[rows[:, 1]]
    negatives = rows.copy()
    open_rows = np.arange(len(rows))
    for _ in range(max_retries + 1):
        if not open_rows.size:
            break
        k = open_rows.size
        replace_head = rng.random(k) < p_head[open_rows]
        other = rng.integers(n_e, size=k)
        candidates = rows[open_rows]
        candidates[:, 0] = np.where(replace_head, other, candidates[:, 0])
        candidates[:, 2] = np.where(replace_head, candidates[:, 2], other)
        negatives[open_rows] = candidates
        codes = triple_codes(candidates, n_e, n_r)
        at = np.minimum(known.searchsorted(codes), known.size - 1)
        open_rows = open_rows[known[at] == codes]
    kept = np.ones(len(rows), dtype=bool)
    kept[open_rows] = False
    return np.stack((rows[kept], negatives[kept]), axis=1)


# -- batched encoder ------------------------------------------------------------

# Most capped context rows, owners' rows included, that one encoder pass
# stacks; a pass runs past it by less than one context.  Large enough to
# spread a pass's fixed cost over many rows; larger passes ran slower again
# (ROADMAP, "Other encoder pass sizes").
PASS_ROWS = 1536


def _windows(rows: np.ndarray) -> np.ndarray:
    """For contexts of ``rows`` rows stacked in order, the window of
    PASS_ROWS rows that each one's first row falls in."""
    return (np.cumsum(rows) - rows) // PASS_ROWS


def _split(at: np.ndarray, window: np.ndarray) -> list[np.ndarray]:
    """``at`` cut where the non-decreasing ``window`` of its entries
    changes: one group per window that holds any."""
    return np.split(at, np.flatnonzero(np.diff(window)) + 1) if at.size else []


@dataclass
class EncodedPass:
    """One encoder pass over objects of one kind: their joint embeddings plus
    what the backward pass needs."""

    kind: str
    ids: np.ndarray           # (B,) object ids
    knowledge: np.ndarray     # (B, d)
    sg: np.ndarray            # (B, d) encoded contexts
    gate: np.ndarray          # (d,)
    star: np.ndarray          # (B, d) joint embeddings
    member_rows: np.ndarray   # (M,) feature row of each context member
    member_ids: np.ndarray    # (M,) contextual-embedding row of that member
    cache: AgcnCache


def context_features(kind: str, contexts: ContextPass,
                     store: ParameterStore) -> np.ndarray:
    """Stacked initial feature rows of one pass's contexts, owned by
    objects of ``kind``.

    A vertex's row is the sum of its members' contextual element embeddings.
    Entity contexts hold entity vertices and read the entity table; relation
    contexts hold relation and relation-path vertices and read the relation
    table.  Row ``member_rows[j]`` sums ``table[member_ids[j]]`` over j.
    Every vertex holds at least one member; when each holds exactly one,
    as in every entity pass, the rows are the members' own, plus 0.0 to
    give the sum's bits (a -0.0 entry sums to 0.0).
    """
    table = store.ent_ctx if kind == ENTITY else store.rel_ctx
    members = table[contexts.member_ids]
    if _one_member_each(contexts.member_rows, contexts.batch.rows):
        members += 0.0
        return members
    return _scatter_rows(contexts.member_rows, members, contexts.batch.rows)


def _one_member_each(member_rows: np.ndarray, n: int) -> bool:
    """Whether each of the n vertices holds one member: ``member_rows``,
    non-decreasing and covering every vertex, is then ``arange(n)``."""
    return member_rows.size == n


def _scatter_rows(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, d) array whose row i sums the rows of ``values`` at rows == i,
    added from 0.0 in input order."""
    d = values.shape[1]
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * d).reshape(n, d)


def _kind_params(store: ParameterStore, kind: str):
    if kind == ENTITY:
        return store.ent_know, store.entity_agcn, store.ent_gate_pre
    return store.rel_know, store.relation_agcn, store.rel_gate_pre


def encode(kind: str, ids: Sequence[int], store: ParameterStore,
           contexts: ContextTable) -> EncodedPass:
    """Joint embeddings of objects of one kind, encoded in one pass over the
    disjoint union of their contexts.  A row does not depend on the other
    objects of the pass."""
    ids = np.asarray(ids, dtype=np.intp)
    gathered = contexts.gather(kind, ids)
    h0 = context_features(kind, gathered, store)
    know_table, agcn, gate_pre = _kind_params(store, kind)
    know = know_table[ids]
    sg, cache = agcn_forward(h0, gathered.batch, agcn, know)
    gate = expit(gate_pre)
    star = gate * know + (1.0 - gate) * sg
    return EncodedPass(kind=kind, ids=ids, knowledge=know, sg=sg, gate=gate,
                       star=star, member_rows=gathered.member_rows,
                       member_ids=gathered.member_ids, cache=cache)


def encode_passes(kind: str, ids: np.ndarray, store: ParameterStore,
                  contexts: ContextTable) -> Iterator[EncodedPass]:
    """``encode`` over ``ids`` in passes cut by their capped context rows
    (``_windows``), after one bulk build of the contexts not built yet."""
    contexts.build(kind, ids)
    for part in _split(ids, _windows(contexts.rows(kind, ids))):
        yield encode(kind, part, store, contexts)


def joint_rows(kind: str, ids: np.ndarray, store: ParameterStore,
               contexts: ContextTable) -> np.ndarray:
    """(len(ids), d) joint embeddings of objects of one kind, in passes."""
    stars = [enc.star for enc in encode_passes(kind, ids, store, contexts)]
    return np.concatenate(stars) if stars else np.zeros((0, store.dim))


class JointCache(NamedTuple):
    """Joint embeddings of every entity and relation of one snapshot."""

    ent_star: np.ndarray   # (n_e, d)
    rel_star: np.ndarray   # (n_r, d)


class FixedRows(NamedTuple):
    """The joint rows online SGD holds fixed, and the objects that can move.

    ``joint`` holds a row for every object of the snapshot; the rows of the
    movable objects (sorted ids per kind) are stale and never read.  Every
    other row equals a fresh encoding under the store for as long as SGD
    moves only the movable objects' knowledge rows and the contextual rows
    no fixed object's context reads.
    """

    joint: JointCache
    entities: np.ndarray
    relations: np.ndarray

    def rows(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """(joint table, movable ids) of one kind."""
        if kind == ENTITY:
            return self.joint.ent_star, self.entities
        return self.joint.rel_star, self.relations

    def refreshed(self, store: ParameterStore, contexts: ContextTable) -> JointCache:
        """The joint table with the movable rows encoded under ``store``."""
        tables = []
        for kind in (ENTITY, RELATION):
            table, movable = self.rows(kind)
            table = table.copy()
            table[movable] = joint_rows(kind, movable, store, contexts)
            tables.append(table)
        return JointCache(*tables)


def joint_table(store: ParameterStore, snapshot: Snapshot,
                contexts: ContextTable | None = None) -> JointCache:
    """Joint embeddings of every object of ``snapshot``.

    The store's own tables when they were encoded on this snapshot (same
    dictionaries, same digest), which builds no context; otherwise a full
    encode over ``contexts`` (by default the store's context table).
    """
    store.require_snapshot(snapshot)
    if store.joint_digest == snapshot.digest:
        return JointCache(store.ent_star, store.rel_star)
    if contexts is None:
        contexts = store.context_table(snapshot)
    return JointCache(
        joint_rows(ENTITY, np.arange(store.num_entities), store, contexts),
        joint_rows(RELATION, np.arange(store.num_relations), store, contexts))


def backward_pass(enc: EncodedPass, d_star: np.ndarray, store: ParameterStore,
                  buffer: GradBuffer) -> None:
    """Accumulate the gradients of sum_b (d_star[b] . o*_b) into the buffer.

    The knowledge embedding receives both the gate path and the attention
    path; context members collect the rows of the h0 gradient.  The weight,
    attention and gate gradients are computed and accumulated only for a
    buffer that holds them.
    """
    gate = enc.gate
    d_know = d_star * gate
    d_sg = d_star * (1.0 - gate)
    _, agcn, _ = _kind_params(store, enc.kind)
    know, ctx, weights, attention, gate_pre = buffer.of_kind(enc.kind)
    grads = agcn_backward(enc.cache, agcn, enc.knowledge, d_sg,
                          param_grads=weights is not None)
    know[enc.ids] += d_know + grads.owner_knowledge
    if weights is not None:
        d_gate_pre = d_star * (enc.knowledge - enc.sg) * gate * (1.0 - gate)
        gate_pre += d_gate_pre.sum(axis=0)
        attention += grads.attention
        for acc, dw in zip(weights, grads.weights):
            acc += dw
    d_members = grads.h0
    if not _one_member_each(enc.member_rows, len(grads.h0)):
        d_members = d_members[enc.member_rows]
    ids, at = np.unique(enc.member_ids, return_inverse=True)
    ctx[ids] += _scatter_rows(at, d_members, ids.size)
    buffer.encoded[0 if enc.kind == ENTITY else 1] += len(enc.ids)


# -- forward / backward over triples -------------------------------------------


@dataclass
class ObjectForward:
    ref: ObjectRef
    star: np.ndarray
    sg: np.ndarray
    gate: np.ndarray
    knowledge: np.ndarray
    cache: AgcnCache


@dataclass
class TripleForward:
    triple: Triple
    f: float
    head: ObjectForward
    relation: ObjectForward
    tail: ObjectForward


def object_forward(ref: ObjectRef, store: ParameterStore,
                   contexts: ContextTable) -> ObjectForward:
    """One object through the batched encoder, as a pass of one."""
    kind, obj = ref
    enc = encode(kind, [obj], store, contexts)
    return ObjectForward(ref=ref, star=enc.star[0], sg=enc.sg[0], gate=enc.gate,
                         knowledge=enc.knowledge[0], cache=enc.cache)


def forward_triple(triple: Triple, store: ParameterStore, contexts: ContextTable,
                   memo: dict[ObjectRef, ObjectForward] | None = None) -> TripleForward:
    """Score one triple; ``memo`` shares per-object work between calls."""
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
    """Dense gradient accumulators matching the store's parameter layout.

    With ``rows_only`` it holds the four row tables only, for SGD that keeps
    the encoders, attention vectors and gates frozen; their accumulators are
    then None, and ``backward_pass`` neither computes nor adds their
    gradients.  ``encoded`` counts the objects back-propagated into the
    buffer: entities, relations.
    """

    def __init__(self, store: ParameterStore, rows_only: bool = False):
        self.ent_know = np.zeros_like(store.ent_know)
        self.ent_ctx = np.zeros_like(store.ent_ctx)
        self.rel_know = np.zeros_like(store.rel_know)
        self.rel_ctx = np.zeros_like(store.rel_ctx)
        self.encoded = np.zeros(2, dtype=np.int64)
        self.ent_weights = self.rel_weights = None
        self.ent_attention = self.rel_attention = None
        self.ent_gate_pre = self.rel_gate_pre = None
        if not rows_only:
            self.ent_weights = [np.zeros_like(w) for w in store.entity_agcn.weights]
            self.rel_weights = [np.zeros_like(w) for w in store.relation_agcn.weights]
            self.ent_attention = np.zeros_like(store.entity_agcn.attention)
            self.rel_attention = np.zeros_like(store.relation_agcn.attention)
            self.ent_gate_pre = np.zeros_like(store.ent_gate_pre)
            self.rel_gate_pre = np.zeros_like(store.rel_gate_pre)

    def of_kind(self, kind: str):
        """(knowledge, context, weights, attention, gate) accumulators."""
        if kind == ENTITY:
            return (self.ent_know, self.ent_ctx, self.ent_weights,
                    self.ent_attention, self.ent_gate_pre)
        return (self.rel_know, self.rel_ctx, self.rel_weights,
                self.rel_attention, self.rel_gate_pre)


def _batch_rows(kind: str, ids: np.ndarray, store: ParameterStore,
                contexts: ContextTable,
                fixed: FixedRows | None) -> tuple[np.ndarray, list[tuple[np.ndarray, EncodedPass]]]:
    """Joint rows of a batch's distinct objects ``ids`` of one kind, plus
    the encoder passes behind them, each with its positions in ``ids``.

    Without fixed rows every object is encoded; with them only the movable
    ones are, and the others are read from the fixed table.  Entities are
    cut into windows of PASS_ROWS capped context rows over all of ``ids``
    (``_windows``; an entity's rows need no build), and each window's
    encoded entities form one pass.  Relations form one pass: a batch holds
    at most batch-size of them, and a relation's rows are known only once
    its context is built, which an update does for the movable ones alone.
    So a contextual row sums the same per-pass gradients in the same order
    with fixed rows as without.
    """
    if fixed is None:
        star = np.empty((len(ids), store.dim))
        at = np.arange(len(ids))
    else:
        table, movable = fixed.rows(kind)
        star = table[ids]
        at = np.flatnonzero(np.isin(ids, movable))
    contexts.build(kind, ids[at])
    if kind == ENTITY:
        groups = _split(at, _windows(contexts.rows(kind, ids))[at])
    else:
        groups = [at] if at.size else []
    passes = []
    for group in groups:
        enc = encode(kind, ids[group], store, contexts)
        star[group] = enc.star
        passes.append((group, enc))
    return star, passes


def batch_loss(pairs: np.ndarray | Sequence[tuple[Triple, Triple]],
               store: ParameterStore, contexts: ContextTable, margin: float,
               buffer: GradBuffer | None = None,
               fixed: FixedRows | None = None) -> float:
    """Summed margin loss over (positive, corrupted) pairs, given as a
    (P, 2, 3) id array (as ``corrupt_rows`` returns) or as a list of
    ``Triple`` pairs; either form gives the same loss and gradients.

    With a buffer, also accumulates the gradient of the summed loss.  The
    distinct objects of the batch are encoded once per call, grouped by kind
    in passes (``_batch_rows``): entities cut by their capped context rows,
    relations all in one.  The pairs are scored as arrays, the upstream
    gradients of each object are merged, and each pass runs one backward
    pass.  With ``fixed`` rows, only the movable objects are encoded
    and back-propagated: the loss is the same, and so are the gradients of
    the movable objects' knowledge rows and of the contextual rows that no
    fixed object's context reads, the emerging objects' among them, bit for
    bit: a row of ``agcn_backward``'s h0 gradient does not depend on what
    else its pass holds.
    """
    if len(pairs) == 0:
        return 0.0
    triples = np.asarray(pairs, dtype=np.intp)            # (P, 2, 3)
    ent_ids, ent_at = np.unique(triples[:, :, [0, 2]], return_inverse=True)
    rel_ids, rel_at = np.unique(triples[:, :, 1], return_inverse=True)
    ent_at = ent_at.reshape(len(pairs), 2, 2)             # (pair, pos/neg, head/tail)
    rel_at = rel_at.reshape(len(pairs), 2)
    ent_star, ent_passes = _batch_rows(ENTITY, ent_ids, store, contexts, fixed)
    rel_star, rel_passes = _batch_rows(RELATION, rel_ids, store, contexts, fixed)

    residual = ent_star[ent_at[:, :, 0]] + rel_star[rel_at] - ent_star[ent_at[:, :, 1]]
    f = np.abs(residual).sum(axis=2)                      # (P, 2)
    losses = np.maximum(f[:, 0] + margin - f[:, 1], 0.0)
    total = float(losses.sum())
    if buffer is None:
        return total

    # d loss / d f is +1 for the positive and -1 for the negative; the sums
    # are small integers, exact in any order
    active = losses > 0.0
    sign = np.sign(residual[active])                      # (A, 2, d)
    sign[:, 1] *= -1.0
    sign = sign.reshape(-1, store.dim)
    heads = ent_at[active][:, :, 0].ravel()
    tails = ent_at[active][:, :, 1].ravel()
    d_ent = _scatter_rows(np.concatenate((heads, tails)),
                          np.concatenate((sign, -sign)), len(ent_ids))
    d_rel = _scatter_rows(rel_at[active].ravel(), sign, len(rel_ids))
    for passes, d_star in ((ent_passes, d_ent), (rel_passes, d_rel)):
        for at, enc in passes:
            backward_pass(enc, d_star[at], store, buffer)
    return total
