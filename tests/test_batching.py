"""Batched encoding: an object's joint embedding does not depend on its pass.

The encoder stacks the contexts of many objects of one kind into one
block-diagonal graph.  Every object's joint embedding must be bit-identical
whether it is encoded alone, with all other objects of its kind, in shuffled
order, or split across passes; criteria 4 and 5 rely on it.  batch_loss must
encode a batch's distinct objects in passes of ENCODE_PASS, not one by one.
"""
import math

import numpy as np
import pytest

import dkge.model as model
from dkge.contexts import ENTITY, RELATION, RELATION_PATH, entity_context
from dkge.model import (ENCODE_PASS, GradBuffer, batch_loss, bernoulli_corrupt,
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
    monkeypatch.setattr(model, "ENCODE_PASS", 4)
    split = np.concatenate([p.star for p in encode_passes(kind, ids, store, table)])
    for i in ids:
        want = alone[i].tobytes()
        assert full[i].tobytes() == want
        assert shuffled[i].tobytes() == want
        assert split[i].tobytes() == want


@at_dims("pass_size", [(ENCODE_PASS,), (4,)])
def test_joint_cache_rows_equal_object_forward(g, pass_size, d, monkeypatch):
    monkeypatch.setattr(model, "ENCODE_PASS", pass_size)
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
    """One batch of criterion 7's trace: ceil(distinct / ENCODE_PASS) encoder
    passes per kind, however large the batch."""
    _, g_new = _speedup_trace()
    store, table = tiny_store(g_new, d=16, seed=0)
    rng = np.random.default_rng(0)
    stats = relation_stats(g_new)
    batch = [g_new.triples[i] for i in rng.permutation(len(g_new.triples))[:500]]
    pairs = [(t, bernoulli_corrupt(t, stats, g_new, rng)) for t in batch]
    entities = {e for pair in pairs for t in pair for e in (t.head, t.tail)}
    relations = {t.relation for pair in pairs for t in pair}
    assert len(entities) > ENCODE_PASS and len(relations) > ENCODE_PASS

    calls = {ENTITY: 0, RELATION: 0}
    forward = model.agcn_forward

    def counting(h0, batch, params, owner_knowledge):
        calls[ENTITY if params is store.entity_agcn else RELATION] += 1
        return forward(h0, batch, params, owner_knowledge)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "agcn_forward", counting)
        batch_loss(pairs, store, table, 4.0, GradBuffer(store))
    assert calls == {ENTITY: math.ceil(len(entities) / ENCODE_PASS),
                     RELATION: math.ceil(len(relations) / ENCODE_PASS)}
