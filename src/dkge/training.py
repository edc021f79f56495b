"""Learning from scratch and incremental online learning.

Both modes run minibatch SGD on the summed margin loss with one Bernoulli
negative per positive.  A batch travels as id arrays: its shuffled rows go
to ``model.corrupt_rows``, whose (positive, negative) array goes to
``batch_loss``.  A positive whose negative sampling runs out of retries is
left out of its batch and counted in ``TrainReport.negatives_dropped``.
Online learning reuses a previous run's parameters: removed objects are
dropped, emerging objects get fresh embeddings, and only triples touching
emerging or changed-context objects are retrained.  One ``model.FixedRows``
says what the update moves: the knowledge rows of the emerging and
changed-context objects, and the contextual rows of the emerging ones.
The encoder weights, attention vectors, gates, and every other embedding
stay frozen, so parameters outside the affected set remain bit-identical.

An online update carries every per-object row over through the diff's id
maps and finds the changed contexts as ``dkge diff`` does
(``contexts.context_changes``: entities from the changed links, relations
by comparing the candidates' contexts on both snapshots).  The context
table stores capped copies of the detector's g_new contexts of the
emerging and changed relations, and builds only the other capped contexts
the update encodes.  The retrain set is id rows in (h, r, t) order.

Both modes end by attaching the joint embedding of every object to the
returned store (``ParameterStore.ent_star``/``rel_star``), so ``eval`` and
``answer`` need not encode.  The tables are attached only after SGD ends,
so the store validation ranks with and the best-epoch copies carry none.
Scratch training encodes every distinct object of each batch, validates on
a fresh encoding of every object, and ends with one sweep over its context
table.  In an online update only the objects whose knowledge row trains,
the emerging and changed ones, can change their joint embedding (no other
capped context reads a trained row).  Before SGD the update's ``FixedRows``
fixes the joint row of every other object: the previous tables carried
over by id map or, when they were not encoded on the old snapshot, every
object encoded once under the migrated store.  SGD encodes and
back-propagates only the movable objects and reads the rest from that
table; validation ranks against the table with the movable rows encoded
afresh, and the update ends by re-encoding them once more.
"""
from __future__ import annotations

import logging
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .contexts import ContextTable, DEFAULT_CAP, IdArrays, RELATION, context_changes
from .errors import ConfigError, DkgeError
from .evaluation import evaluate
from .kg_store import (Snapshot, SnapshotDiff, Triple, diff_snapshots, distinct, lookup,
                       triple_codes)
from .model import (FixedRows, GradBuffer, JointCache, ParameterStore,
                    RelationStats, batch_loss, corrupt_rows, init_params,
                    joint_table, relation_stats)

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    dim: int = 100
    learning_rate: float = 0.005
    batch_size: int = 500
    margin: float = 10.0
    entity_layers: int = 1
    relation_layers: int = 1
    max_epochs: int = 800
    patience: int = 5
    eval_every: int = 10
    seed: int = 0
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning rate must be finite and > 0, "
                              f"got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0 < self.margin < math.inf:
            raise ConfigError(f"margin must be finite and > 0, got {self.margin}")
        for name, layers in (("entity_layers", self.entity_layers),
                             ("relation_layers", self.relation_layers)):
            if layers not in (1, 2):
                raise ConfigError(f"{name} must be 1 or 2, got {layers}")
        if self.max_epochs < 1:
            raise ConfigError(f"max epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.eval_every < 1:
            raise ConfigError(f"eval cadence must be >= 1, got {self.eval_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.cap < 1:
            raise ConfigError(f"cap must be >= 1, got {self.cap}")


@dataclass
class TrainReport:
    mode: str
    seconds: float
    retrained_triples: int | None
    updated_parameters: int
    frozen_parameters: int
    reencoded_entities: int
    reencoded_relations: int
    # what SGD did (``_sgd_loop``); the defaults say that no epoch ran
    epochs_run: int = 0
    epoch_losses: list[float] = field(default_factory=list)
    best_valid_hits10: float | None = None
    best_epoch: int | None = None
    # positives left out of their batch because every negative drawn for
    # them was a known triple, summed over the epochs run
    negatives_dropped: int = 0
    # objects SGD encoded and back-propagated, summed over its batches
    sgd_encoded_entities: int = 0
    sgd_encoded_relations: int = 0


def _apply_sgd(store: ParameterStore, buf: GradBuffer, lr: float,
               fixed: FixedRows | None) -> None:
    if fixed is None:
        store.ent_know -= lr * buf.ent_know
        store.ent_ctx -= lr * buf.ent_ctx
        store.rel_know -= lr * buf.rel_know
        store.rel_ctx -= lr * buf.rel_ctx
        for w, dw in zip(store.entity_agcn.weights, buf.ent_weights):
            w -= lr * dw
        for w, dw in zip(store.relation_agcn.weights, buf.rel_weights):
            w -= lr * dw
        store.entity_agcn.attention -= lr * buf.ent_attention
        store.relation_agcn.attention -= lr * buf.rel_attention
        store.ent_gate_pre -= lr * buf.ent_gate_pre
        store.rel_gate_pre -= lr * buf.rel_gate_pre
        return
    for rows, target, grad in (
            (fixed.entities, store.ent_know, buf.ent_know),
            (fixed.emerging_entities, store.ent_ctx, buf.ent_ctx),
            (fixed.relations, store.rel_know, buf.rel_know),
            (fixed.emerging_relations, store.rel_ctx, buf.rel_ctx)):
        if rows.size:
            target[rows] -= lr * grad[rows]


def _progress_line(epoch: int, loss: float, hits: float | None, seconds: float) -> str:
    hits_text = "na" if hits is None else f"{hits:.4f}"
    return f"epoch={epoch} loss={loss:.6f} valid_hits10={hits_text} seconds={seconds:.3f}"


def _sgd_loop(snapshot: Snapshot, train_rows: np.ndarray, store: ParameterStore,
              table: ContextTable, stats: RelationStats,
              valid_triples: list[Triple] | None, config: TrainConfig,
              fixed: FixedRows | None, shuffle_rng: np.random.Generator,
              negative_rng: np.random.Generator, log) -> tuple[ParameterStore, dict]:
    """Minibatch SGD with early stopping on validation Hits@10.

    ``fixed`` is None for scratch training, which moves every parameter.
    In an online update it says which rows SGD moves and holds the joint
    rows of every other object: ``batch_loss`` reads those instead of
    encoding, and validation ranks against them with the movable rows
    encoded afresh.  Returns the store of the best validation point (or the
    last store when validation never ran) and ``TrainReport``'s SGD fields.
    An epoch whose mean loss is not finite raises DkgeError naming the
    epoch and the learning rate."""
    best_store = None
    best_hits = None
    best_epoch = None
    patience_left = config.patience
    losses: list[float] = []
    n = len(train_rows)
    dropped = 0
    encoded = np.zeros(2, dtype=np.int64)
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        # an overflow shows as a non-finite loss, which the check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, config.batch_size):
                batch = train_rows[order[start:start + config.batch_size]]
                pairs = corrupt_rows(batch, stats, snapshot, negative_rng)
                dropped += len(batch) - len(pairs)
                buf = GradBuffer(store, rows_only=fixed is not None)
                epoch_loss += batch_loss(pairs, store, table, config.margin, buf, fixed)
                encoded += buf.encoded
                _apply_sgd(store, buf, config.learning_rate, fixed)
        mean_loss = epoch_loss / n
        if not math.isfinite(mean_loss):
            raise DkgeError(f"training diverged: epoch {epoch} mean loss is {mean_loss} "
                            f"at learning rate {config.learning_rate}")
        losses.append(mean_loss)
        hits = None
        stop = False
        if valid_triples and epoch % config.eval_every == 0:
            joint = None if fixed is None else fixed.refreshed(store, table)
            report = evaluate(valid_triples, store, snapshot, snapshot.triple_ids,
                              ks=(10,), contexts=table, joint=joint)
            hits = report.hits_at[10]
            if best_hits is None or hits > best_hits:
                best_hits = hits
                best_epoch = epoch
                best_store = store.copy()
                patience_left = config.patience
            else:
                patience_left -= 1
                if patience_left <= 0:
                    stop = True
        if log is not None:
            print(_progress_line(epoch, mean_loss, hits, time.perf_counter() - t0),
                  file=log, flush=True)
        if stop:
            break
    return (store if best_store is None else best_store,
            dict(epochs_run=len(losses), epoch_losses=losses, best_valid_hits10=best_hits,
                 best_epoch=best_epoch, negatives_dropped=dropped,
                 sgd_encoded_entities=int(encoded[0]),
                 sgd_encoded_relations=int(encoded[1])))


def _check_valid_triples(valid, snapshot: Snapshot) -> list[Triple]:
    out = []
    for t in sorted(valid):
        triple = Triple(*t)
        if not (0 <= triple.head < snapshot.num_entities
                and 0 <= triple.tail < snapshot.num_entities
                and 0 <= triple.relation < snapshot.num_relations):
            raise ConfigError(f"validation triple {triple} uses unknown objects")
        out.append(triple)
    return out


def train_from_scratch(snapshot: Snapshot, valid, config: TrainConfig,
                       log=sys.stdout) -> tuple[ParameterStore, TrainReport]:
    """Full training run on one snapshot.

    ``valid`` is a set of triples used for early stopping on filtered
    Hits@10; pass an empty set to always run max_epochs.  Returns the
    parameters from the best validation point when validation ran.
    """
    t_start = time.perf_counter()
    valid_triples = _check_valid_triples(valid or (), snapshot)
    seq = np.random.SeedSequence(config.seed)
    init_ss, shuffle_ss, neg_ss, _ = seq.spawn(4)
    store = init_params(snapshot, config.dim, np.random.default_rng(init_ss),
                        entity_layers=config.entity_layers,
                        relation_layers=config.relation_layers,
                        cap=config.cap, seed=config.seed)
    table = store.context_table(snapshot)
    table.build_all()
    stats = relation_stats(snapshot)
    store, sgd = _sgd_loop(
        snapshot, snapshot.triple_ids, store, table, stats, valid_triples,
        config, None, np.random.default_rng(shuffle_ss),
        np.random.default_rng(neg_ss), log)
    store.attach_joint(joint_table(store, snapshot, table), snapshot)
    report = TrainReport(
        mode="scratch", seconds=time.perf_counter() - t_start,
        retrained_triples=None, updated_parameters=store.parameter_count(),
        frozen_parameters=0, reencoded_entities=store.num_entities,
        reencoded_relations=store.num_relations, **sgd)
    return store, report


def collect_retrain_set(g_new: Snapshot, diff: SnapshotDiff, changed: IdArrays) -> np.ndarray:
    """Id rows of the new snapshot's triples touching an emerging object or
    one of the ``changed`` (entity ids, relation ids), in (h, r, t) order."""
    ent = np.concatenate((diff.emerging_entities, changed[0]))
    rel = np.concatenate((diff.emerging_relations, changed[1]))
    ids = g_new.triple_ids
    rows = ids[np.isin(ids[:, [0, 2]], ent).any(axis=1) | np.isin(ids[:, 1], rel)]
    return rows[np.argsort(triple_codes(rows, g_new.num_entities, g_new.num_relations))]


def _carry_rows(rows: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Rows of the new snapshot's objects: row i is ``rows[source[i]]``, or
    zeros where ``source[i]`` is -1 (an emerging object)."""
    out = rows[source]
    out[source < 0] = 0
    return out


def _migrate_store(store: ParameterStore, g_new: Snapshot, diff: SnapshotDiff,
                   rng: np.random.Generator) -> ParameterStore:
    """Carry the parameters over to the new snapshot through the diff's id
    maps: drop removed objects, keep the survivors' rows, and initialize
    emerging ones from the uniform prior, knowledge then context row per
    object, entities first.  The encoders, gates and context settings carry
    over unchanged."""
    d = store.dim
    bound = 6.0 / np.sqrt(d)
    tables = []
    for know, ctx, source in ((store.ent_know, store.ent_ctx, diff.entity_map.to_old),
                              (store.rel_know, store.rel_ctx, diff.relation_map.to_old)):
        new = source < 0
        drawn = rng.uniform(-bound, bound, size=(int(new.sum()), 2, d))
        for k, old_rows in enumerate((know, ctx)):
            rows = old_rows[source]  # fresh; an emerging row's -1 is drawn over
            rows[new] = drawn[:, k]
            tables.append(rows)
    ent_know, ent_ctx, rel_know, rel_ctx = tables
    return ParameterStore(
        dim=d, entity_names=g_new.entity_names, relation_names=g_new.relation_names,
        ent_know=ent_know, ent_ctx=ent_ctx, rel_know=rel_know, rel_ctx=rel_ctx,
        entity_agcn=store.entity_agcn.copy(), relation_agcn=store.relation_agcn.copy(),
        ent_gate_pre=store.ent_gate_pre.copy(), rel_gate_pre=store.rel_gate_pre.copy(),
        cap=store.cap, seed=store.seed)


def _holdout_validation(g_new: Snapshot, t_ol: np.ndarray,
                        rng: np.random.Generator) -> list[Triple]:
    """Fallback validation set: about 1% of the unaffected triples whose
    objects all occur in at least one other triple."""
    ids = g_new.triple_ids
    h, r, t = ids.T
    n_e, n_r = g_new.num_entities, g_new.num_relations
    ent_count = np.bincount(ids[:, [0, 2]].ravel(), minlength=n_e)
    rel_count = np.bincount(r, minlength=n_r)
    # t_ol is sorted by code
    fresh = lookup(triple_codes(t_ol, n_e, n_r), triple_codes(ids, n_e, n_r)) < 0
    pool = np.flatnonzero(fresh & (ent_count[h] >= 2) & (ent_count[t] >= 2)
                          & (rel_count[r] >= 2) & ((h != t) | (ent_count[h] >= 3)))
    if not pool.size:
        return []
    k = max(1, pool.size // 100)
    picks = rng.choice(pool.size, size=k, replace=False)
    return list(map(Triple._make, ids[pool[np.sort(picks)]].tolist()))


def train_online(g_old: Snapshot, g_new: Snapshot, store: ParameterStore, valid,
                 config: TrainConfig, log=sys.stdout) -> tuple[ParameterStore, TrainReport]:
    """Incremental update of a trained store from g_old to g_new.

    Retrains only the triples touching emerging or changed-context objects.
    Emerging objects train both embeddings; changed-context objects train
    the knowledge embedding only; all other parameters are left untouched.
    The config's model settings (``ParameterStore.model_config``) must equal
    the store's; only the optimiser settings are free.
    """
    t_start = time.perf_counter()
    store.require_snapshot(g_old)
    store.require_model_config(vars(config))
    seq = np.random.SeedSequence(config.seed)
    init_ss, shuffle_ss, neg_ss, holdout_ss = seq.spawn(4)
    diff = diff_snapshots(g_old, g_new)
    old = store
    store = _migrate_store(store, g_new, diff, np.random.default_rng(init_ss))
    table = store.context_table(g_new)
    changed = context_changes(g_old, g_new, diff)
    table.add(RELATION, changed.relation_contexts)
    t_ol = collect_retrain_set(g_new, diff, changed)
    movable = (distinct(np.concatenate((diff.emerging_entities, changed[0]))),
               distinct(np.concatenate((diff.emerging_relations, changed[1]))))
    # Only the movable objects' joint rows can change during SGD
    # (``FixedRows``), so the previous tables serve every other row.
    stored = old.stored_joint(g_old)
    if stored is not None:
        joint = JointCache(_carry_rows(stored.ent_star, diff.entity_map.to_old),
                           _carry_rows(stored.rel_star, diff.relation_map.to_old))
        n_ent, n_rel = map(len, movable)
    else:
        joint = joint_table(store, g_new, table)
        n_ent, n_rel = store.num_entities, store.num_relations
    fixed = FixedRows(joint, *movable, diff.emerging_entities, diff.emerging_relations)
    updated = fixed.trained_rows * store.dim

    sgd = {}
    if len(t_ol):
        if valid:
            valid_triples = _check_valid_triples(valid, g_new)
        else:
            valid_triples = _holdout_validation(g_new, t_ol,
                                                np.random.default_rng(holdout_ss))
        stats = relation_stats(g_new)
        store, sgd = _sgd_loop(
            g_new, t_ol, store, table, stats, valid_triples, config, fixed,
            np.random.default_rng(shuffle_ss), np.random.default_rng(neg_ss), log)
    store.attach_joint(fixed.refreshed(store, table), g_new)
    report = TrainReport(
        mode="online", seconds=time.perf_counter() - t_start,
        retrained_triples=len(t_ol), updated_parameters=updated,
        frozen_parameters=store.parameter_count() - updated,
        reencoded_entities=n_ent, reencoded_relations=n_rel, **sgd)
    return store, report
