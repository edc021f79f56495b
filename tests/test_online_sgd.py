"""Online SGD encodes and back-propagates only the objects that can move.

During an update ``batch_loss`` reads the joint rows of every other object
from a fixed table (``model.FixedRows``).  These tests hold that table to a
fresh encoding, the movable-only loss and gradients to the full-batch ones,
validation to a full fresh encode, and the report's encode counters to the
batches SGD saw.
"""
import numpy as np
import pytest

import dkge.model as model
import dkge.training as training
from dkge.contexts import ENTITY, RELATION
from dkge.evaluation import evaluate
from dkge.kg_store import Snapshot, diff_snapshots
from dkge.model import PASS_ROWS, GradBuffer, batch_loss, object_forward
from dkge.training import TrainConfig, train_from_scratch, train_online

from graphs import churned_triples, random_name_triples, tiny_store

FAST = dict(dim=8, learning_rate=0.01, batch_size=8, margin=2.0,
            max_epochs=2, patience=2, eval_every=2, seed=0)


def attached_graph(seed):
    """A random graph and the same graph plus an emerging entity ``new0``,
    attached to four existing entities, once through an emerging relation
    ``r9``."""
    rng = np.random.default_rng(seed)
    base = random_name_triples(rng, 120, 30, 5)
    grown = base + [("new0", "r1", "e3"), ("e7", "r2", "new0"), ("new0", "r0", "e11"),
                    ("new0", "r9", "e5")]
    return Snapshot.from_name_triples(base), Snapshot.from_name_triples(grown)


def spy_batch_loss(monkeypatch, check):
    """Route the SGD loop's batch_loss calls through ``check`` first."""
    def spied(pairs, store, contexts, margin, buffer=None, fixed=None):
        check(pairs, store, contexts, margin, buffer, fixed)
        return batch_loss(pairs, store, contexts, margin, buffer, fixed)

    monkeypatch.setattr(training, "batch_loss", spied)


def batch_objects(pairs):
    """Distinct (entity ids, relation ids) of a (P, 2, 3) batch."""
    pairs = np.asarray(pairs)
    return np.unique(pairs[:, :, [0, 2]]), np.unique(pairs[:, :, 1])


@pytest.mark.parametrize("pass_rows", [PASS_ROWS, 128, 4])
@pytest.mark.parametrize("layers", [1, 2])
def test_movable_only_batch_matches_the_full_batch(layers, pass_rows, monkeypatch):
    """One update batch with an emerging entity and relation: the
    movable-only loss and the gradients of every trainable row equal the
    full-batch ones bit for bit, and the buffer holds no encoder, attention
    or gate accumulator.

    Passes are cut at PASS_ROWS, 128 and 4 context rows.  At 4, an
    emerging contextual row sums gradients from several passes, and a pass
    of the movable objects alone can hold a single context vertex; its rows
    of the h0 gradient still equal the full pass's, since the encoder
    multiplies in blocks of one fixed shape."""
    monkeypatch.setattr(model, "PASS_ROWS", pass_rows)
    g_old, g_new = attached_graph(1)
    diff = diff_snapshots(g_old, g_new)
    emerging = diff.emerging_entities
    assert emerging.size == diff.emerging_relations.size == 1
    seen = []

    def check(pairs, store, contexts, margin, buffer, fixed):
        ents, rels = batch_objects(pairs)
        assert np.isin(emerging, ents).all()
        assert not np.isin(ents, fixed.entities).all()
        assert np.isin(ents, fixed.entities).any()
        full = GradBuffer(store)
        want = batch_loss(pairs, store, contexts, margin, full)
        part = GradBuffer(store, rows_only=True)
        got = batch_loss(pairs, store, contexts, margin, part, fixed)
        assert got == want
        for rows, a, b in ((fixed.entities, part.ent_know, full.ent_know),
                           (fixed.relations, part.rel_know, full.rel_know),
                           (emerging, part.ent_ctx, full.ent_ctx),
                           (diff.emerging_relations, part.rel_ctx, full.rel_ctx)):
            assert np.any(a[rows] != 0.0)
            assert a[rows].tobytes() == b[rows].tobytes()
        for acc in (part.ent_weights, part.rel_weights, part.ent_attention,
                    part.rel_attention, part.ent_gate_pre, part.rel_gate_pre):
            assert acc is None
        assert part.encoded.tolist() == [np.isin(ents, fixed.entities).sum(),
                                         np.isin(rels, fixed.relations).sum()]
        assert full.encoded.tolist() == [ents.size, rels.size]
        seen.append(got)

    store, _ = tiny_store(g_old, d=8, seed=layers, entity_layers=layers,
                          relation_layers=layers)
    spy_batch_loss(monkeypatch, check)
    cfg = TrainConfig(**{**FAST, "batch_size": 10_000, "max_epochs": 1,
                         "entity_layers": layers, "relation_layers": layers,
                         "seed": layers})
    train_online(g_old, g_new, store, set(), cfg, log=None)
    assert len(seen) == 1 and seen[0] > 0.0


def test_fixed_rows_equal_fresh_encodings_along_a_chain(monkeypatch):
    """Train, then three updates with contexts capped and two encoder
    layers: every fixed row batch_loss reads equals object_forward under the
    store of that moment, bit for bit."""
    rng = np.random.default_rng(8)
    triples = random_name_triples(rng, 200, 50, 6)
    g = Snapshot.from_name_triples(triples)
    cfg = TrainConfig(**{**FAST, "cap": 6, "entity_layers": 2, "relation_layers": 2})
    store, _ = train_from_scratch(g, set(), cfg, log=None)
    checked = {ENTITY: 0, RELATION: 0}

    def check(pairs, store, contexts, margin, buffer, fixed):
        if fixed is None:
            return
        fresh = store.context_table(contexts.snapshot)
        for kind, ids in zip((ENTITY, RELATION), batch_objects(pairs)):
            table, movable = fixed.rows(kind)
            for i in ids[~np.isin(ids, movable)].tolist():
                assert (table[i].tobytes()
                        == object_forward((kind, i), store, fresh).star.tobytes())
                checked[kind] += 1

    spy_batch_loss(monkeypatch, check)
    for step in range(1, 4):
        triples = churned_triples(rng, triples, churn=0.04)
        g_new = Snapshot.from_name_triples(triples)
        assert store.joint_digest == g.digest
        store, report = train_online(g, g_new, store, set(), cfg, log=None)
        assert report.retrained_triples > 0
        g = g_new
    assert checked[ENTITY] > 0 and checked[RELATION] > 0


def test_update_validation_equals_a_fresh_encode(monkeypatch):
    """With eval_every=1, every validation of an update ranks against the
    fixed table with the movable rows encoded afresh, and its hits equal
    those of a full fresh encode of the same store."""
    g_old, g_new = attached_graph(3)
    cfg = TrainConfig(**{**FAST, "max_epochs": 4, "eval_every": 1, "patience": 10})
    store, _ = train_from_scratch(g_old, set(), cfg, log=None)
    calls = []

    def checked(test, store, snapshot, known, **kwargs):
        assert kwargs["joint"] is not None
        got = evaluate(test, store, snapshot, known, **kwargs)
        bare = store.copy()
        assert bare.joint_digest is None
        want = evaluate(test, bare, snapshot, known, ks=kwargs["ks"])
        assert got == want
        calls.append(got.hits_at[10])
        return got

    monkeypatch.setattr(training, "evaluate", checked)
    valid = set(g_new.triples[:6])
    _, report = train_online(g_old, g_new, store, valid, cfg, log=None)
    assert len(calls) == cfg.max_epochs == report.epochs_run
    assert report.best_valid_hits10 == max(calls)


def test_report_counts_the_objects_sgd_encoded(monkeypatch):
    """Scratch training encodes every distinct object of each batch; an
    update encodes only the movable ones."""
    g_old, g_new = attached_graph(4)
    counts = []

    def check(pairs, store, contexts, margin, buffer, fixed):
        ents, rels = batch_objects(pairs)
        if fixed is not None:
            ents = ents[np.isin(ents, fixed.entities)]
            rels = rels[np.isin(rels, fixed.relations)]
        counts[-1] += np.array([ents.size, rels.size])

    spy_batch_loss(monkeypatch, check)
    cfg = TrainConfig(**FAST)
    counts.append(np.zeros(2, dtype=np.int64))
    store, scratch = train_from_scratch(g_old, set(), cfg, log=None)
    counts.append(np.zeros(2, dtype=np.int64))
    _, online = train_online(g_old, g_new, store, set(), cfg, log=None)
    assert [scratch.sgd_encoded_entities, scratch.sgd_encoded_relations] \
        == counts[0].tolist()
    assert [online.sgd_encoded_entities, online.sgd_encoded_relations] \
        == counts[1].tolist()
    assert 0 < online.sgd_encoded_entities < scratch.sgd_encoded_entities
