"""Learning from scratch and incremental online learning.

Both modes run minibatch SGD on the summed margin loss with one Bernoulli
negative per positive.  Online learning reuses a previous run's parameters:
removed objects are dropped, emerging objects get fresh embeddings, and only
triples touching emerging or changed-context objects are retrained.  During
the online pass the encoder weights, attention vectors, gates, and every
other embedding stay frozen, so parameters outside the affected set remain
bit-identical.
"""
from __future__ import annotations

import logging
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .contexts import (ContextTable, ENTITY, RELATION, ObjectRef,
                       candidate_changed_names)
from .errors import ConfigError, IntegrityError
from .evaluation import evaluate
from .kg_store import Snapshot, SnapshotDiff, Triple, diff_snapshots
from .model import (GradBuffer, ParameterStore, RelationStats, batch_loss,
                    bernoulli_corrupt, init_params, relation_stats)

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
    cap: int = 35
    max_midpoints: int = 1000

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.margin <= 0:
            raise ConfigError(f"margin must be > 0, got {self.margin}")
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

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "epochs_run": self.epochs_run,
            "epoch_losses": self.epoch_losses,
            "best_valid_hits10": self.best_valid_hits10,
            "best_epoch": self.best_epoch,
            "seconds": self.seconds,
            "retrained_triples": self.retrained_triples,
            "updated_parameters": self.updated_parameters,
            "frozen_parameters": self.frozen_parameters,
        }


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


def _sgd_loop(snapshot: Snapshot, train_triples: list[Triple], store: ParameterStore,
              table: ContextTable, stats: RelationStats,
              valid_triples: list[Triple] | None, config: TrainConfig,
              mask: UpdateMask | None, shuffle_rng: np.random.Generator,
              negative_rng: np.random.Generator, log) -> tuple[ParameterStore, list[float], float | None, int | None, int]:
    best_store = None
    best_hits = -1.0
    best_epoch = None
    patience_left = config.patience
    losses: list[float] = []
    n = len(train_triples)
    epochs_run = 0
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        epochs_run = epoch
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = [train_triples[i] for i in order[start:start + config.batch_size]]
            pairs = [(t, bernoulli_corrupt(t, stats, snapshot, negative_rng))
                     for t in batch]
            buf = GradBuffer(store)
            epoch_loss += batch_loss(pairs, store, table, config.margin, buf)
            _apply_sgd(store, buf, config.learning_rate, mask)
        mean_loss = epoch_loss / n
        losses.append(mean_loss)
        hits = None
        stop = False
        if valid_triples and epoch % config.eval_every == 0:
            report = evaluate(valid_triples, store, snapshot, snapshot.triple_set,
                              ks=(10,), contexts=table)
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
        return best_store, losses, best_hits, best_epoch, epochs_run
    return store, losses, None, None, epochs_run


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
    store.signatures = table.signatures_by_name()
    stats = relation_stats(snapshot)
    store, losses, best_hits, best_epoch, epochs = _sgd_loop(
        snapshot, list(snapshot.triples), store, table, stats, valid_triples,
        config, None, np.random.default_rng(shuffle_ss),
        np.random.default_rng(neg_ss), log)
    report = TrainReport(
        mode="scratch", epochs_run=epochs, epoch_losses=losses,
        best_valid_hits10=best_hits, best_epoch=best_epoch,
        seconds=time.perf_counter() - t_start, retrained_triples=None,
        updated_parameters=store.parameter_count(), frozen_parameters=0)
    return store, report


def collect_retrain_set(g_new: Snapshot, diff: SnapshotDiff,
                        changed: frozenset[ObjectRef] | set[ObjectRef]) -> frozenset[Triple]:
    """Triples of the new snapshot touching an emerging or changed object."""
    flag_e = set(diff.emerging_entities)
    flag_r = set(diff.emerging_relations)
    for kind, obj in changed:
        (flag_e if kind == ENTITY else flag_r).add(obj)
    return frozenset(
        t for t in g_new.triples
        if t.head in flag_e or t.tail in flag_e or t.relation in flag_r)


def _migrate_store(store: ParameterStore, g_old: Snapshot, g_new: Snapshot,
                   rng: np.random.Generator) -> ParameterStore:
    """Re-key parameters to the new snapshot: drop removed objects, copy the
    survivors by name, and initialize emerging ones from the uniform prior.
    The encoders, gates and context settings carry over unchanged."""
    d = store.dim
    bound = 6.0 / np.sqrt(d)
    n_e, n_r = g_new.num_entities, g_new.num_relations
    ent_know = np.zeros((n_e, d))
    ent_ctx = np.zeros((n_e, d))
    rel_know = np.zeros((n_r, d))
    rel_ctx = np.zeros((n_r, d))
    for new_id, name in enumerate(g_new.entity_names):
        old_id = g_old.entity_ids.get(name)
        if old_id is None:
            ent_know[new_id] = rng.uniform(-bound, bound, size=d)
            ent_ctx[new_id] = rng.uniform(-bound, bound, size=d)
        else:
            ent_know[new_id] = store.ent_know[old_id]
            ent_ctx[new_id] = store.ent_ctx[old_id]
    for new_id, name in enumerate(g_new.relation_names):
        old_id = g_old.relation_ids.get(name)
        if old_id is None:
            rel_know[new_id] = rng.uniform(-bound, bound, size=d)
            rel_ctx[new_id] = rng.uniform(-bound, bound, size=d)
        else:
            rel_know[new_id] = store.rel_know[old_id]
            rel_ctx[new_id] = store.rel_ctx[old_id]
    return ParameterStore(
        dim=d, entity_names=g_new.entity_names, relation_names=g_new.relation_names,
        ent_know=ent_know, ent_ctx=ent_ctx, rel_know=rel_know, rel_ctx=rel_ctx,
        entity_agcn=store.entity_agcn.copy(), relation_agcn=store.relation_agcn.copy(),
        ent_gate_pre=store.ent_gate_pre.copy(), rel_gate_pre=store.rel_gate_pre.copy(),
        cap=store.cap, seed=store.seed, max_midpoints=store.max_midpoints,
        signatures=dict(store.signatures))


def _detect_changed(store: ParameterStore, g_old: Snapshot, g_new: Snapshot,
                    ent_cand: set[str], rel_cand: set[str],
                    table: ContextTable) -> frozenset[ObjectRef]:
    """Signature comparison against the stored signatures of the old run,
    restricted to the sound candidate set."""
    changed: set[ObjectRef] = set()
    for kind, cand, old_ids, new_ids in (
            (ENTITY, ent_cand, g_old.entity_ids, g_new.entity_ids),
            (RELATION, rel_cand, g_old.relation_ids, g_new.relation_ids)):
        for name in sorted(cand):
            if name not in old_ids or name not in new_ids:
                continue
            old_sig = store.signatures.get((kind, name))
            if old_sig is None:
                raise IntegrityError(f"store has no context signature for {kind} {name!r}")
            if table.signature((kind, new_ids[name])) != old_sig:
                changed.add((kind, new_ids[name]))
    return frozenset(changed)


def _refresh_signatures(store: ParameterStore, g_new: Snapshot, table: ContextTable,
                        recomputed: set[tuple[str, str]]) -> None:
    """Signatures for the new snapshot: carry over what provably did not
    change, take fresh values for candidates and emerging objects."""
    new_sigs: dict[tuple[str, str], int] = {}
    for kind, names, ids in ((ENTITY, g_new.entity_names, g_new.entity_ids),
                             (RELATION, g_new.relation_names, g_new.relation_ids)):
        for name in names:
            key = (kind, name)
            if key in recomputed or key not in store.signatures:
                new_sigs[key] = table.signature((kind, ids[name]))
            else:
                new_sigs[key] = store.signatures[key]
    store.signatures = new_sigs


def _holdout_validation(g_new: Snapshot, t_ol: frozenset[Triple],
                        rng: np.random.Generator) -> list[Triple]:
    """Fallback validation set: about 1% of the unaffected triples whose
    objects all occur in at least one other triple."""
    ent_count: dict[int, int] = {}
    rel_count: dict[int, int] = {}
    for h, r, t in g_new.triples:
        ent_count[h] = ent_count.get(h, 0) + 1
        ent_count[t] = ent_count.get(t, 0) + 1
        rel_count[r] = rel_count.get(r, 0) + 1
    pool = [t for t in g_new.triples
            if t not in t_ol
            and ent_count[t.head] >= 2 and ent_count[t.tail] >= 2
            and rel_count[t.relation] >= 2
            and (t.head != t.tail or ent_count[t.head] >= 3)]
    if not pool:
        return []
    k = max(1, len(pool) // 100)
    picks = rng.choice(len(pool), size=k, replace=False)
    return [pool[i] for i in sorted(picks)]


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
    for key, stored in store.model_config().items():
        if getattr(config, key) != stored:
            raise ConfigError(f"config {key}={getattr(config, key)} does not "
                              f"match checkpoint {key}={stored}")
    seq = np.random.SeedSequence(config.seed)
    init_ss, shuffle_ss, neg_ss, holdout_ss = seq.spawn(4)
    diff = diff_snapshots(g_old, g_new)
    store = _migrate_store(store, g_old, g_new, np.random.default_rng(init_ss))
    table = store.context_table(g_new)
    ent_cand, rel_cand = candidate_changed_names(g_old, g_new, diff)
    changed = _detect_changed(store, g_old, g_new, ent_cand, rel_cand, table)
    t_ol = collect_retrain_set(g_new, diff, changed)

    recomputed: set[tuple[str, str]] = set()
    recomputed.update((ENTITY, n) for n in ent_cand if n in g_new.entity_ids)
    recomputed.update((RELATION, n) for n in rel_cand if n in g_new.relation_ids)
    _refresh_signatures(store, g_new, table, recomputed)

    emerging_e = sorted(diff.emerging_entities)
    emerging_r = sorted(diff.emerging_relations)
    changed_e = sorted(obj for kind, obj in changed if kind == ENTITY)
    changed_r = sorted(obj for kind, obj in changed if kind == RELATION)
    mask = UpdateMask(
        ent_know_rows=np.array(sorted(set(emerging_e) | set(changed_e)), dtype=np.intp),
        ent_ctx_rows=np.array(emerging_e, dtype=np.intp),
        rel_know_rows=np.array(sorted(set(emerging_r) | set(changed_r)), dtype=np.intp),
        rel_ctx_rows=np.array(emerging_r, dtype=np.intp))

    updated = mask.updated_count * store.dim
    frozen = store.parameter_count() - updated

    if not t_ol:
        report = TrainReport(
            mode="online", epochs_run=0, epoch_losses=[], best_valid_hits10=None,
            best_epoch=None, seconds=time.perf_counter() - t_start,
            retrained_triples=0, updated_parameters=updated, frozen_parameters=frozen)
        return store, report

    if valid:
        valid_triples = _check_valid_triples(valid, g_new)
    else:
        valid_triples = _holdout_validation(g_new, t_ol,
                                            np.random.default_rng(holdout_ss))
    stats = relation_stats(g_new)
    store, losses, best_hits, best_epoch, epochs = _sgd_loop(
        g_new, sorted(t_ol), store, table, stats, valid_triples, config, mask,
        np.random.default_rng(shuffle_ss), np.random.default_rng(neg_ss), log)
    report = TrainReport(
        mode="online", epochs_run=epochs, epoch_losses=losses,
        best_valid_hits10=best_hits, best_epoch=best_epoch,
        seconds=time.perf_counter() - t_start, retrained_triples=len(t_ol),
        updated_parameters=updated, frozen_parameters=frozen)
    return store, report
