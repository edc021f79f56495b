"""Batched encoding: an object's joint embedding does not depend on its pass.

The encoder stacks the contexts of many objects of one kind into one
block-diagonal graph.  Every object's joint embedding must be bit-identical
whether it is encoded alone, with all other objects of its kind, in shuffled
order, or split across passes; criteria 4 and 5 rely on it.  batch_loss must
encode a batch's distinct objects in passes cut by their capped context
rows (PASS_ROWS), not one by one.
"""
import numpy as np
import pytest

import dkge.model as model
from dkge.contexts import ENTITY, RELATION, RELATION_PATH, entity_context
from dkge.model import (PASS_ROWS, GradBuffer, batch_loss, bernoulli_corrupt,
                        encode, encode_passes, joint_table, object_forward,
                        relation_stats)

from graphs import random_snapshot, tiny_store
from test_acceptance import _speedup_trace

CAP = 6


@pytest.fixture(scope="module")
def g():
    return random_snapshot(np.random.default_rng(11), n_triples=240,
                           n_entities=30, n_relations=6)


def at_dims(argnames, cases):
    """Parametrize over ``cases`` and over d in (8, 16, 32), the benchmark's
    dimensions among them; the d=8 cases keep their plain ids."""
    return pytest.mark.parametrize(
        f"{argnames}, d",
        [pytest.param(*case, d, id="-".join(map(str, case)) + ("" if d == 8 else f"-d{d}"))
         for d in (8, 16, 32) for case in cases])


@at_dims("kind, layers", [(kind, layers) for kind in (ENTITY, RELATION) for layers in (1, 2)])
def test_encoding_does_not_depend_on_the_pass(g, kind, layers, d, monkeypatch):
    store, table = tiny_store(g, d=d, seed=5, cap=CAP, entity_layers=layers,
                              relation_layers=layers)
    n = g.num_entities if kind == ENTITY else g.num_relations
    ids = np.arange(n)
    subs = [table.get((kind, i)) for i in range(n)]
    if kind == ENTITY:  # some contexts were sampled down to the cap
        assert any(len(entity_context(g, e).vertices) > CAP == len(subs[e].vertices)
                   for e in range(n))
    else:               # some vertices are two-relation paths
        assert any(v.kind == RELATION_PATH and len(v.members) == 2
                   for sub in subs for v in sub.vertices)

    alone = np.vstack([object_forward((kind, i), store, table).star for i in ids])
    full = encode(kind, ids, store, table).star
    order = np.random.default_rng(layers).permutation(n)
    shuffled = np.empty_like(full)
    shuffled[order] = encode(kind, order, store, table).star
    splits = []
    for pass_rows in (PASS_ROWS, 128, 4):
        monkeypatch.setattr(model, "PASS_ROWS", pass_rows)
        splits.append(np.concatenate([p.star for p in encode_passes(kind, ids, store, table)]))
    for i in ids:
        want = alone[i].tobytes()
        assert full[i].tobytes() == want
        assert shuffled[i].tobytes() == want
        for split in splits:
            assert split[i].tobytes() == want


@at_dims("pass_rows", [(PASS_ROWS,), (128,), (4,)])
def test_joint_cache_rows_equal_object_forward(g, pass_rows, d, monkeypatch):
    monkeypatch.setattr(model, "PASS_ROWS", pass_rows)
    store, table = tiny_store(g, d=d, seed=6, cap=CAP, entity_layers=2)
    cache = joint_table(store, g, table)
    assert cache.ent_star.shape == (g.num_entities, d)
    assert cache.rel_star.shape == (g.num_relations, d)
    for e in range(g.num_entities):
        assert (cache.ent_star[e].tobytes()
                == object_forward((ENTITY, e), store, table).star.tobytes())
    for r in range(g.num_relations):
        assert (cache.rel_star[r].tobytes()
                == object_forward((RELATION, r), store, table).star.tobytes())


def test_batch_loss_encodes_in_passes():
    """One 500-triple batch of criterion 7's trace: the entity passes are
    the windows of PASS_ROWS capped rows, min(degree + 1, cap), over the
    batch's distinct entities in id order, none holding more than
    PASS_ROWS + cap - 1 rows; the relations go in one pass."""
    _, g_new = _speedup_trace()
    store, table = tiny_store(g_new, d=16, seed=0, cap=12)
    rng = np.random.default_rng(0)
    stats = relation_stats(g_new)
    batch = [g_new.triples[i] for i in rng.permutation(len(g_new.triples))[:500]]
    pairs = [(t, bernoulli_corrupt(t, stats, g_new, rng)) for t in batch]
    entities = np.unique([e for pair in pairs for t in pair for e in (t.head, t.tail)])
    degree = np.diff(g_new.links.ptr)[entities]
    rows = np.minimum(degree + 1, store.cap)
    assert rows.sum() > 2 * PASS_ROWS and (degree + 1 > store.cap).any()
    window = (np.cumsum(rows) - rows) // PASS_ROWS

    passes = {ENTITY: [], RELATION: []}
    forward = model.agcn_forward

    def counting(h0, batch, params, owner_knowledge):
        passes[ENTITY if params is store.entity_agcn else RELATION].append(len(h0))
        return forward(h0, batch, params, owner_knowledge)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "agcn_forward", counting)
        batch_loss(pairs, store, table, 4.0, GradBuffer(store))
    assert len(passes[ENTITY]) == window[-1] + 1
    assert passes[ENTITY] == np.bincount(window, weights=rows).astype(int).tolist()
    assert max(passes[ENTITY]) <= PASS_ROWS + store.cap - 1
    assert len(passes[RELATION]) == 1
