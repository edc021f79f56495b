"""The flat context store against the one-object definitions.

``build_contexts`` and ``hash_contexts`` work on many contexts at once, and
``ContextTable.gather`` assembles an encoder pass from stored arrays.  Each
must reproduce, bit for bit, what ``entity_context``, ``relation_context``,
``context_signature``, the per-name cap sample, ``normalize_adjacency`` and
the member sums give one object at a time, on graphs with self-loops, links
in both directions, several relations per pair, hubs above the cap and
shuffled file order.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dkge.agcn
import dkge.contexts as contexts
from dkge.agcn import normalize_adjacency
from dkge.contexts import (ContextSubgraph, ContextTable, ContextVertex, ENTITY,
                           RELATION, build_contexts, context_signature,
                           entity_context, hash_contexts, relation_context)
from dkge.kg_store import Snapshot
from dkge.model import context_features
from dkge.training import TrainConfig, train_from_scratch

from graphs import random_name_triples, tiny_store

CAP = 4
NAME = st.text(alphabet="ab'\"Zé09", min_size=1, max_size=3)


@st.composite
def graphs(draw):
    ents = draw(st.lists(NAME, min_size=2, max_size=12, unique=True))
    rels = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    ent = st.integers(0, len(ents) - 1)
    rel = st.integers(0, len(rels) - 1)
    triples = draw(st.lists(st.tuples(ent, rel, ent), min_size=1, max_size=30))
    hub = draw(ent)
    triples += [(hub, 0, t) for t in range(len(ents)) if t != hub]
    triples += [(t, r, h) for h, r, t in triples[:draw(st.integers(0, 6))]]
    triples += [(h, (r + 1) % len(rels), t) for h, r, t in triples[:draw(st.integers(0, 6))]]
    triples += [(e, draw(rel), e) for e in draw(st.lists(ent, max_size=3))]
    order = draw(st.permutations(range(len(triples))))
    return Snapshot.from_name_triples(
        [(ents[triples[k][0]], rels[triples[k][1]], ents[triples[k][2]]) for k in order])


def one_by_one(g, kind):
    if kind == ENTITY:
        return [entity_context(g, e) for e in range(g.num_entities)]
    return [relation_context(g, r) for r in range(g.num_relations)]


def split(ctx):
    """Per owner: (vertex member tuples, edges) of flat contexts."""
    members = iter(ctx.members.tolist())
    per_vertex = iter(ctx.vertex_members.tolist())
    edges = np.split(ctx.edges, np.cumsum(ctx.edge_counts)[:-1])
    return [([tuple(next(members) for _ in range(next(per_vertex))) for _ in range(n)], e)
            for n, e in zip(ctx.sizes.tolist(), edges)]


def capped_reference(g, sub, cap, seed):
    """The capped context by its definition: the owner plus a uniform
    sample of cap - 1 other vertices drawn from the per-name rng."""
    n = len(sub.vertices)
    if n <= cap:
        return sub
    kind, obj = sub.owner
    name = (g.entity_names if kind == ENTITY else g.relation_names)[obj]
    rng = np.random.default_rng(contexts._object_seed(seed, kind, name))
    keep = np.concatenate(([0], np.sort(rng.choice(np.arange(1, n), size=cap - 1,
                                                    replace=False))))
    position = np.full(n, -1)
    position[keep] = np.arange(cap)
    edges = position[sub.edges]
    return ContextSubgraph(sub.owner, tuple(sub.vertices[i] for i in keep),
                           edges[(edges >= 0).all(axis=1)])


@pytest.mark.parametrize("kind", [ENTITY, RELATION])
@given(g=graphs())
@settings(max_examples=60, deadline=None)
def test_bulk_contexts_equal_one_by_one(g, kind):
    n = g.num_entities if kind == ENTITY else g.num_relations
    got = split(build_contexts(g, kind, np.arange(n)))
    for (members, edges), sub in zip(got, one_by_one(g, kind), strict=True):
        assert members == [v.members for v in sub.vertices]
        assert edges.tolist() == sub.edges.tolist()


@pytest.mark.parametrize("kind", [ENTITY, RELATION])
@given(g=graphs())
@settings(max_examples=60, deadline=None)
def test_bulk_signatures_equal_context_signature(g, kind):
    want = [context_signature(sub, g) for sub in one_by_one(g, kind)]
    n = len(want)
    assert hash_contexts(g, kind, build_contexts(g, kind, np.arange(n))) == want
    names = g.entity_names if kind == ENTITY else g.relation_names
    table = ContextTable(g, cap=CAP)
    sigs = table.signatures(None if kind == ENTITY else (), None if kind == RELATION else ())
    assert sigs == {(kind, names[o]): want[o] for o in range(n)}


def test_graph_of_self_loops_only():
    """No two entities are linked: every context is its owner alone."""
    g = Snapshot.from_name_triples([("a", "r", "a"), ("b", "s", "b")])
    assert g.links.nbrs.size == 0
    for kind in (ENTITY, RELATION):
        subs = one_by_one(g, kind)
        ctx = build_contexts(g, kind, np.arange(len(subs)))
        assert [(m, e.tolist()) for m, e in split(ctx)] == [
            ([v.members for v in sub.vertices], sub.edges.tolist()) for sub in subs]
        assert hash_contexts(g, kind, ctx) == [context_signature(sub, g) for sub in subs]


@given(g=graphs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_pass_gathers_s_and_h0_bit_for_bit(g, data):
    """A pass's S is ``normalize_adjacency`` over that pass's capped
    contexts, and its h0 rows are the members' contextual rows summed from
    zero in member order."""
    seed = data.draw(st.integers(0, 3))
    store, table = tiny_store(g, d=3, seed=seed, cap=CAP)
    for kind, rows in ((ENTITY, store.ent_ctx), (RELATION, store.rel_ctx)):
        refs = one_by_one(g, kind)
        ids = data.draw(st.lists(st.integers(0, len(refs) - 1), min_size=1,
                                 max_size=len(refs), unique=True))
        subs = [capped_reference(g, refs[o], CAP, seed) for o in ids]
        got = table.gather(kind, ids)
        want = normalize_adjacency([len(s.vertices) for s in subs],
                                   np.concatenate([s.edges for s in subs]),
                                   [len(s.edges) for s in subs])
        s = got.batch.norm_adj
        assert s.shape == want.shape
        assert s.indptr.tolist() == want.indptr.tolist()
        assert s.indices.tolist() == want.indices.tolist()
        assert s.data.tobytes() == want.data.tobytes()
        h0 = np.array([sum((rows[m] for m in v.members), np.zeros(store.dim))
                       for sub in subs for v in sub.vertices])
        assert context_features(kind, got, store).tobytes() == h0.tobytes()
        for o, sub in zip(ids, subs):
            assert table.get((kind, o)).vertices == sub.vertices
            assert table.get((kind, o)).edges.tolist() == sub.edges.tolist()


@given(g=graphs())
@settings(max_examples=40, deadline=None)
def test_chunked_build_equals_unchunked(g):
    built = []
    for chunk in (1, 1 << 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contexts, "BUILD_CHUNK", chunk)
            table = ContextTable(g, cap=CAP, seed=1)
            sigs = table.signatures()
        passes = [table.gather(kind, np.arange(n)) for kind, n
                  in ((ENTITY, g.num_entities), (RELATION, g.num_relations))]
        built.append((sigs, passes))
    (sigs_a, passes_a), (sigs_b, passes_b) = built
    assert sigs_a == sigs_b
    for a, b in zip(passes_a, passes_b):
        assert a.batch.norm_adj.data.tobytes() == b.batch.norm_adj.data.tobytes()
        assert a.batch.norm_adj.indices.tolist() == b.batch.norm_adj.indices.tolist()
        assert a.batch.norm_adj.indptr.tolist() == b.batch.norm_adj.indptr.tolist()
        assert a.member_rows.tolist() == b.member_rows.tolist()
        assert a.member_ids.tolist() == b.member_ids.tolist()


def test_training_epochs_gather_only(monkeypatch):
    """A second epoch builds no context and computes no S: the S entries
    and contexts come from the table built once, before SGD."""
    rng = np.random.default_rng(4)
    g = Snapshot.from_name_triples(random_name_triples(rng, 200, 30, 5))
    counts = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(dkge.agcn, "normalize_adjacency",
                        counting("normalize", dkge.agcn.normalize_adjacency))
    for cls in (ContextVertex, ContextSubgraph):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    seen = []
    for epochs in (1, 2):
        counts.clear()
        train_from_scratch(g, set(), TrainConfig(dim=4, batch_size=50, max_epochs=epochs,
                                                 cap=6, margin=2.0), log=None)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["normalize"] > 0 and seen[0]["ContextVertex"] > 0
    assert "ContextSubgraph" in seen[0]   # relation contexts, built once
