"""Learning from scratch and incremental online learning.

Both modes run minibatch SGD on the summed margin loss with one Bernoulli
negative per positive.  A batch travels as id arrays: its shuffled rows go
to ``model.corrupt_rows``, whose (positive, negative) array goes to
``batch_loss``.  A positive whose negative sampling runs out of retries is
left out of its batch and counted in ``TrainReport.negatives_dropped``.
Online learning reuses a previous run's
parameters: removed objects are dropped, emerging objects get fresh
embeddings, and only triples touching emerging or changed-context objects
are retrained.  During the online pass the encoder weights, attention
vectors, gates, and every other embedding stay frozen, so parameters outside
the affected set remain bit-identical.

An online update carries every per-object row over through the diff's id
maps and finds the changed contexts among the candidate objects only, by
comparing their contexts on both snapshots (``contexts.context_changes``, as
``dkge diff`` does).  The retrain set is id rows in (h, r, t) order.

Both modes end by attaching the joint embedding of every object to the
returned store (``ParameterStore.ent_star``/``rel_star``), so ``eval`` and
``answer`` need not encode.  The tables are attached only after SGD ends,
so the store validation ranks with and the best-epoch copies carry none.
Scratch training encodes every distinct object of each batch, validates on
a fresh encoding of every object, and ends with one sweep over its context
table.  In an online update only the objects whose knowledge row trains,
the emerging and changed ones, can change their joint embedding (no other
capped context reads a trained row).  Before SGD the update fixes the joint
row of every other object: the previous tables carried over by id map or,
when they were not encoded on the old snapshot, every object encoded once
under the migrated store (``model.FixedRows``).  SGD encodes and
back-propagates only the movable objects and reads the rest from that
table; validation ranks against the table with the movable rows encoded
afresh, and the update ends by re-encoding them once more.
"""
from __future__ import annotations

import logging
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .contexts import (ContextTable, DEFAULT_CAP, DEFAULT_MAX_MIDPOINTS,
                       IdArrays, candidate_objects, context_changes)
from .errors import ConfigError, DkgeError
from .evaluation import evaluate
from .kg_store import Snapshot, SnapshotDiff, Triple, diff_snapshots, triple_codes
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
    max_midpoints: int = DEFAULT_MAX_MIDPOINTS

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
        if self.max_midpoints < 0:
            raise ConfigError(f"max midpoints must be >= 0, got {self.max_midpoints}")


@dataclass
class TrainReport:
    mode: str
    epochs_run: int
    epoch_losses: list[float]
    best_valid_hits10: float | None
    best_epoch: int | None
    seconds: float
    retrained_triples: int | None
    updated_parameters: int
    frozen_parameters: int
    reencoded_entities: int
    reencoded_relations: int
    # positives left out of their batch because every negative drawn for
    # them was a known triple, summed over the epochs run
    negatives_dropped: int
    # objects SGD encoded and back-propagated, summed over its batches
    sgd_encoded_entities: int
    sgd_encoded_relations: int


@dataclass
class UpdateMask:
    """Rows allowed to move during online SGD; everything else is frozen."""

    ent_know_rows: np.ndarray
    ent_ctx_rows: np.ndarray
    rel_know_rows: np.ndarray
    rel_ctx_rows: np.ndarray

    @property
    def updated_count(self) -> int:
        return int(self.ent_know_rows.size + self.ent_ctx_rows.size
                   + self.rel_know_rows.size + self.rel_ctx_rows.size)


def _apply_sgd(store: ParameterStore, buf: GradBuffer, lr: float,
               mask: UpdateMask | None) -> None:
    if mask is None:
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
            (mask.ent_know_rows, store.ent_know, buf.ent_know),
            (mask.ent_ctx_rows, store.ent_ctx, buf.ent_ctx),
            (mask.rel_know_rows, store.rel_know, buf.rel_know),
            (mask.rel_ctx_rows, store.rel_ctx, buf.rel_ctx)):
        if rows.size:
            target[rows] -= lr * grad[rows]


def _progress_line(epoch: int, loss: float, hits: float | None, seconds: float) -> str:
    hits_text = "na" if hits is None else f"{hits:.4f}"
    return f"epoch={epoch} loss={loss:.6f} valid_hits10={hits_text} seconds={seconds:.3f}"


def _sgd_loop(snapshot: Snapshot, train_rows: np.ndarray, store: ParameterStore,
              table: ContextTable, stats: RelationStats,
              valid_triples: list[Triple] | None, config: TrainConfig,
              mask: UpdateMask | None, fixed: FixedRows | None,
              shuffle_rng: np.random.Generator, negative_rng: np.random.Generator,
              log) -> tuple[ParameterStore, list[float], float | None, int | None, int, int, np.ndarray]:
    """Minibatch SGD with early stopping on validation Hits@10.  Under an
    update ``mask``, ``fixed`` holds the joint rows that cannot move:
    ``batch_loss`` reads them instead of encoding, and validation ranks
    against them with the movable rows encoded afresh.  An epoch whose mean
    loss is not finite raises DkgeError naming the epoch and the learning
    rate."""
    best_store = None
    best_hits = -1.0
    best_epoch = None
    patience_left = config.patience
    losses: list[float] = []
    n = len(train_rows)
    epochs_run = 0
    dropped = 0
    encoded = np.zeros(2, dtype=np.int64)
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        epochs_run = epoch
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = train_rows[order[start:start + config.batch_size]]
            pairs = corrupt_rows(batch, stats, snapshot, negative_rng)
            dropped += len(batch) - len(pairs)
            buf = GradBuffer(store, rows_only=mask is not None)
            epoch_loss += batch_loss(pairs, store, table, config.margin, buf, fixed)
            encoded += buf.encoded
            _apply_sgd(store, buf, config.learning_rate, mask)
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
            if hits > best_hits:
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
    if best_store is not None:
        return best_store, losses, best_hits, best_epoch, epochs_run, dropped, encoded
    return store, losses, None, None, epochs_run, dropped, encoded


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
                        cap=config.cap, seed=config.seed,
                        max_midpoints=config.max_midpoints)
    table = store.context_table(snapshot)
    table.build_all()
    stats = relation_stats(snapshot)
    store, losses, best_hits, best_epoch, epochs, dropped, encoded = _sgd_loop(
        snapshot, snapshot.triple_ids, store, table, stats, valid_triples,
        config, None, None, np.random.default_rng(shuffle_ss),
        np.random.default_rng(neg_ss), log)
    store.attach_joint(joint_table(store, snapshot, table), snapshot)
    report = TrainReport(
        mode="scratch", epochs_run=epochs, epoch_losses=losses,
        best_valid_hits10=best_hits, best_epoch=best_epoch,
        seconds=time.perf_counter() - t_start, retrained_triples=None,
        updated_parameters=store.parameter_count(), frozen_parameters=0,
        reencoded_entities=store.num_entities,
        reencoded_relations=store.num_relations, negatives_dropped=dropped,
        sgd_encoded_entities=int(encoded[0]), sgd_encoded_relations=int(encoded[1]))
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
        rows = _carry_rows(np.stack((know, ctx), axis=1), source)
        new = source < 0
        rows[new] = rng.uniform(-bound, bound, size=(int(new.sum()), 2, d))
        tables += [rows[:, 0].copy(), rows[:, 1].copy()]
    ent_know, ent_ctx, rel_know, rel_ctx = tables
    return ParameterStore(
        dim=d, entity_names=g_new.entity_names, relation_names=g_new.relation_names,
        ent_know=ent_know, ent_ctx=ent_ctx, rel_know=rel_know, rel_ctx=rel_ctx,
        entity_agcn=store.entity_agcn.copy(), relation_agcn=store.relation_agcn.copy(),
        ent_gate_pre=store.ent_gate_pre.copy(), rel_gate_pre=store.rel_gate_pre.copy(),
        cap=store.cap, seed=store.seed, max_midpoints=store.max_midpoints)


def _holdout_validation(g_new: Snapshot, t_ol: np.ndarray,
                        rng: np.random.Generator) -> list[Triple]:
    """Fallback validation set: about 1% of the unaffected triples whose
    objects all occur in at least one other triple."""
    ids = g_new.triple_ids
    h, r, t = ids.T
    n_e, n_r = g_new.num_entities, g_new.num_relations
    ent_count = np.bincount(ids[:, [0, 2]].ravel(), minlength=n_e)
    rel_count = np.bincount(r, minlength=n_r)
    fresh = ~np.isin(triple_codes(ids, n_e, n_r), triple_codes(t_ol, n_e, n_r))
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
    candidates = candidate_objects(g_new, diff)
    changed = context_changes(g_old, diff, candidates, table.contexts, table.max_midpoints)
    t_ol = collect_retrain_set(g_new, diff, changed)
    mask = UpdateMask(ent_know_rows=np.union1d(diff.emerging_entities, changed[0]),
                      ent_ctx_rows=diff.emerging_entities,
                      rel_know_rows=np.union1d(diff.emerging_relations, changed[1]),
                      rel_ctx_rows=diff.emerging_relations)

    updated = mask.updated_count * store.dim
    frozen = store.parameter_count() - updated
    # Only the movable objects' joint rows can change during SGD: every other
    # object keeps its capped context, its rows and the frozen encoder and
    # gate, and no capped context of such an object reads a trained
    # contextual row.  Only emerging objects' contextual rows train, and a
    # context holding an emerging object did not exist on g_old, so its
    # owner is emerging or changed: its knowledge row trains.
    if old.joint_digest == g_old.digest:
        joint = JointCache(_carry_rows(old.ent_star, diff.entity_map.to_old),
                           _carry_rows(old.rel_star, diff.relation_map.to_old))
        n_ent, n_rel = len(mask.ent_know_rows), len(mask.rel_know_rows)
    else:
        joint = joint_table(store, g_new, table)
        n_ent, n_rel = store.num_entities, store.num_relations
    fixed = FixedRows(joint, mask.ent_know_rows, mask.rel_know_rows)

    losses, best_hits, best_epoch, epochs, dropped = [], None, None, 0, 0
    encoded = np.zeros(2, dtype=np.int64)
    if len(t_ol):
        if valid:
            valid_triples = _check_valid_triples(valid, g_new)
        else:
            valid_triples = _holdout_validation(g_new, t_ol,
                                                np.random.default_rng(holdout_ss))
        stats = relation_stats(g_new)
        store, losses, best_hits, best_epoch, epochs, dropped, encoded = _sgd_loop(
            g_new, t_ol, store, table, stats, valid_triples, config, mask, fixed,
            np.random.default_rng(shuffle_ss), np.random.default_rng(neg_ss), log)
    store.attach_joint(fixed.refreshed(store, table), g_new)
    report = TrainReport(
        mode="online", epochs_run=epochs, epoch_losses=losses,
        best_valid_hits10=best_hits, best_epoch=best_epoch,
        seconds=time.perf_counter() - t_start, retrained_triples=len(t_ol),
        updated_parameters=updated, frozen_parameters=frozen,
        reencoded_entities=n_ent, reencoded_relations=n_rel,
        negatives_dropped=dropped, sgd_encoded_entities=int(encoded[0]),
        sgd_encoded_relations=int(encoded[1]))
    return store, report
