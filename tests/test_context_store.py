"""The flat context store against the one-object definitions.

``build_contexts`` works on many contexts at once, and
``ContextTable.gather`` assembles an encoder pass from stored arrays.  Each
must reproduce, bit for bit, what ``entity_context``, ``relation_context``,
the per-name cap sample, ``normalize_adjacency`` and the member sums give
one object at a time, on graphs with self-loops, links in both directions,
several relations per pair, hubs above the cap and shuffled file order.
Relation contexts are also checked with ``contexts.MAX_MIDPOINTS`` patched
to small limits, truncation warnings included.  The commands must run on the
array indexes alone, never on the dict indexes the definitions read.
"""
import logging
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dkge.agcn
import dkge.cli
import dkge.contexts as contexts
from dkge.agcn import normalize_adjacency
from dkge.contexts import (ContextSubgraph, ContextTable, ENTITY, RELATION,
                           build_contexts, candidate_relations, entity_context,
                           relation_context)
from dkge.errors import UnknownObjectError
from dkge.kg_store import Snapshot, diff_snapshots
from dkge.model import context_features
from dkge.training import TrainConfig, train_from_scratch, train_online

from graphs import (candidate_changed_names, churned_triples, random_name_triples,
                    tiny_store, toy_snapshot, write_snapshot_dir)

CAP = 4
NAME = st.text(alphabet="ab'\"Zé09", min_size=1, max_size=3)
# values patched into contexts.MAX_MIDPOINTS, its own included
MIDPOINT_LIMITS = st.sampled_from([0, 1, 2, contexts.MAX_MIDPOINTS])
# what ``relation_context`` logs for one truncated pair
PAIR_WARNING = "relation %s pair (%s, %s): %d candidate midpoints truncated to %d"
DICT_INDEXES = {"pair_map", "out_map", "relation_pairs", "neighbor_map"}


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


@contextmanager
def logged_warnings():
    """The messages ``dkge.contexts`` logs at WARNING inside the block."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger(contexts.__name__)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


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


@given(g=graphs(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_bulk_relation_contexts_truncate_as_one_by_one(g, data):
    """Under any midpoint limit and for any owners, bulk relation contexts
    equal ``relation_context``'s, and the truncated pairs are the ones it
    warns about, in its order."""
    limit = data.draw(MIDPOINT_LIMITS)
    owners = data.draw(st.lists(st.integers(0, g.num_relations - 1), max_size=6))
    with mock.patch.object(contexts, "MAX_MIDPOINTS", limit):
        with logged_warnings() as want:
            subs = [relation_context(g, r) for r in owners]
        ctx, truncated = contexts._relation_contexts(g, np.array(owners, dtype=np.intp))
    for (members, edges), sub in zip(split(ctx), subs, strict=True):
        assert members == [v.members for v in sub.vertices]
        assert edges.tolist() == sub.edges.tolist()
    assert [PAIR_WARNING % (g.relation_names[r], g.entity_names[a], g.entity_names[b],
                            n, limit)
            for r, a, b, n in truncated.tolist()] == want


def test_one_truncation_warning_per_build(caplog, monkeypatch):
    """A bulk build logs its truncated pairs as one warning, also when it
    spans several chunks."""
    triples = [("a", "r", "b"), ("c", "r", "d"), ("a", "s", "b")]
    for i in range(4):
        triples += [("a", "go", f"m{i}"), (f"m{i}", "back", "b"),
                    ("c", "go", f"m{i}"), (f"m{i}", "back", "d")]
    triples += [("a", "s", "m9"), ("m9", "back", "b"), ("a", "go", "m9")]
    g = Snapshot.from_name_triples(triples)
    monkeypatch.setattr(contexts, "MAX_MIDPOINTS", 2)
    for chunk in (contexts.BUILD_CHUNK, 1):
        caplog.clear()
        monkeypatch.setattr(contexts, "BUILD_CHUNK", chunk)
        with caplog.at_level(logging.WARNING, logger=contexts.__name__):
            ContextTable(g).build_all()
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [(
            "WARNING", "3 relation pairs: candidate midpoints truncated to 2 (largest "
                       "count 5); relations: r, s")]


@pytest.mark.parametrize("built", [False, True], ids=["unbuilt", "built"])
@pytest.mark.parametrize("call, kind, bad", [
    ("gather", ENTITY, -1), ("gather", ENTITY, "n"), ("gather", RELATION, -1),
    ("gather", RELATION, "n"), ("build", ENTITY, -1), ("build", RELATION, "n"),
    ("build", ENTITY, "n"), ("build", RELATION, -1),
])
def test_table_rejects_ids_out_of_range(built, call, kind, bad):
    """An id outside [0, n) names its kind and value, whether or not the
    table holds contexts yet; -1 does not wrap round to the last object."""
    g = toy_snapshot(1)
    n = g.num_entities if kind == ENTITY else g.num_relations
    bad = n if bad == "n" else bad
    table = ContextTable(g)
    if built:
        table.build_all()
    with pytest.raises(UnknownObjectError, match=f"unknown {kind}: {bad}$") as err:
        getattr(table, call)(kind, [0, bad])
    assert (err.value.kind, err.value.key) == (kind, bad)


@pytest.mark.parametrize("kind", [ENTITY, RELATION])
def test_table_takes_empty_ids(kind):
    """No ids: an empty pass, no contexts, nothing stored."""
    table = ContextTable(toy_snapshot(1))
    table.build(kind, [])
    ctx = build_contexts(table.snapshot, kind, [])
    assert ctx.owners.size == ctx.sizes.size == ctx.members.size == 0
    assert ctx.edges.shape == (0, 2)
    gathered = table.gather(kind, np.array([], dtype=np.intp))
    assert gathered.batch.norm_adj.shape == (0, 0)
    assert gathered.member_rows.size == gathered.member_ids.size == 0
    assert (table._stores[kind].slot < 0).all()


def test_graph_of_self_loops_only():
    """No two entities are linked: every context is its owner alone."""
    g = Snapshot.from_name_triples([("a", "r", "a"), ("b", "s", "b")])
    assert g.links.nbrs.size == 0
    for kind in (ENTITY, RELATION):
        subs = one_by_one(g, kind)
        ctx = build_contexts(g, kind, np.arange(len(subs)))
        assert [(m, e.tolist()) for m, e in split(ctx)] == [
            ([v.members for v in sub.vertices], sub.edges.tolist()) for sub in subs]


def test_entity_rows_are_read_off_the_links(monkeypatch):
    """``ContextTable.rows`` of an entity, min(degree + 1, cap), builds no
    context and equals the vertex count of its stored capped context, on a
    graph with entities above and below the cap, self-loops and an entity
    whose one triple is a self-loop.  A relation's rows come from its built
    context."""
    rng = np.random.default_rng(3)
    triples = random_name_triples(rng, 60, 20, 3)
    triples += [("hub", "r0", f"e{i}") for i in range(10)]
    triples += [("e1", "r1", "e1"), ("hub", "r2", "hub"), ("alone", "r0", "alone"),
                ("x", "r1", "y")]
    g = Snapshot.from_name_triples(triples)
    table = ContextTable(g, cap=CAP, seed=2)
    ids = np.arange(g.num_entities)

    def no_build(*args):
        raise AssertionError("rows built a context")

    with monkeypatch.context() as mp:
        mp.setattr(contexts, "build_contexts", no_build)
        rows = table.rows(ENTITY, ids)
    assert (table._stores[ENTITY].slot < 0).all()
    uncapped = [len(entity_context(g, e).vertices) for e in ids]
    assert rows[g.entity_ids["alone"]] == uncapped[g.entity_ids["alone"]] == 1
    assert max(uncapped) > CAP and uncapped[g.entity_ids["x"]] == 2
    table.build(ENTITY, ids)
    store = table._stores[ENTITY]
    assert rows.tolist() == np.diff(store.vptr)[store.slot[ids]].tolist()
    assert rows.tolist() == [len(table.entity(e).vertices) for e in ids]
    rel_ids = np.arange(g.num_relations)
    assert table.rows(RELATION, rel_ids).tolist() == [
        len(table.relation(r).vertices) for r in rel_ids]


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


@given(g=graphs(), limit=MIDPOINT_LIMITS)
@settings(max_examples=40, deadline=None)
def test_chunked_build_equals_unchunked(g, limit):
    built = []
    for chunk in (1, 1 << 40):
        with mock.patch.object(contexts, "MAX_MIDPOINTS", limit), \
                mock.patch.object(contexts, "BUILD_CHUNK", chunk):
            table = ContextTable(g, cap=CAP, seed=1)
            kinds = ((ENTITY, g.num_entities), (RELATION, g.num_relations))
            uncapped = [split(build_contexts(g, kind, np.arange(n))) for kind, n in kinds]
            passes = [table.gather(kind, np.arange(n)) for kind, n in kinds]
        built.append(([[(m, e.tolist()) for m, e in ctx] for ctx in uncapped], passes))
    (uncapped_a, passes_a), (uncapped_b, passes_b) = built
    assert uncapped_a == uncapped_b
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
    normalize, build = dkge.agcn.normalize_adjacency, contexts.build_contexts

    def counting_normalize(*args):
        counts["normalize"] = counts.get("normalize", 0) + 1
        return normalize(*args)

    def counting_build(snapshot, kind, owners, *args):
        counts[kind] = counts.get(kind, 0) + len(owners)
        return build(snapshot, kind, owners, *args)

    monkeypatch.setattr(dkge.agcn, "normalize_adjacency", counting_normalize)
    monkeypatch.setattr(contexts, "build_contexts", counting_build)
    seen = []
    for epochs in (1, 2):
        counts.clear()
        train_from_scratch(g, set(), TrainConfig(dim=4, batch_size=50, max_epochs=epochs,
                                                 cap=6, margin=2.0), log=None)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["normalize"] > 0
    assert (seen[0][ENTITY], seen[0][RELATION]) == (g.num_entities, g.num_relations)


def test_commands_stay_off_the_dict_indexes(tmp_path, monkeypatch, capsys):
    """``train``, ``update`` and ``diff`` build none of the dict indexes
    that only the one-object definitions read, and ``diff`` builds no
    per-triple tuple view either: its snapshots hold only the int64 array."""
    rng = np.random.default_rng(6)
    base = random_name_triples(rng, 150, 30, 5)
    g_old = Snapshot.from_name_triples(base)
    g_new = Snapshot.from_name_triples(churned_triples(rng, base))
    config = TrainConfig(dim=4, batch_size=50, max_epochs=1, cap=6, margin=2.0)
    store, _ = train_from_scratch(g_old, set(), config, log=None)
    train_online(g_old, g_new, store, set(), config, log=None)
    write_snapshot_dir(tmp_path / "old", g_old.name_triples())
    write_snapshot_dir(tmp_path / "new", g_new.name_triples())
    loaded = []
    load = dkge.cli.load_snapshot_dir

    def recording_load(path):
        loaded.append(load(path))
        return loaded[-1]

    monkeypatch.setattr(dkge.cli, "load_snapshot_dir", recording_load)
    assert dkge.cli.main(["diff", str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert "changed_context=" in capsys.readouterr().out
    snapshots = [g_old, g_new] + [sd.train for sd in loaded]
    assert len(snapshots) == 4
    for g in snapshots:
        assert not DICT_INDEXES & set(vars(g))
    for sd in loaded:
        assert not {"triples", "triple_set"} & set(vars(sd.train))
        assert isinstance(sd.train.triple_ids, np.ndarray)


def candidate_relations_by_name_loop(g_old, g_new, diff):
    """Relation candidates by their first definition: a loop over every
    name triple of g_new."""
    head_rels, tail_rels = {}, {}
    for h, r, t in g_new.name_triples():
        head_rels.setdefault(h, set()).add(r)
        tail_rels.setdefault(t, set()).add(r)
    rel = set()
    for h, r, t in ([g_new.triple_names(t) for t in diff.added_triples]
                    + [g_old.triple_names(t) for t in diff.deleted_triples]):
        rel |= {r} | head_rels.get(h, set()) | tail_rels.get(t, set())
    return rel


def assert_candidates_equal_the_name_loops(g_old, g_new):
    """``candidate_relations`` holds the relations of the first definition
    and is the name loop's candidate set restricted to g_new, sorted, with
    every emerging relation in it."""
    diff = diff_snapshots(g_old, g_new)
    rel_ids = candidate_relations(g_new, diff)
    rel = {g_new.relation_names[r] for r in rel_ids.tolist()}
    assert rel == candidate_relations_by_name_loop(g_old, g_new, diff) & set(g_new.relation_names)
    rel_names = candidate_changed_names(g_old, g_new, diff)
    assert rel_ids.tolist() == sorted(g_new.relation_ids[n] for n in rel_names
                                      if n in g_new.relation_ids)
    assert set(diff.emerging_relations.tolist()) <= set(rel_ids.tolist())


@pytest.mark.parametrize("old, new", [(0, 1), (1, 2), (0, 2), (2, 0)])
def test_candidate_relations_on_the_toy_trace(old, new):
    assert_candidates_equal_the_name_loops(toy_snapshot(old), toy_snapshot(new))


@given(g=graphs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_candidate_relations_equal_name_loop(g, data):
    triples = list(g.name_triples())
    kept = data.draw(st.lists(st.sampled_from(triples), min_size=1, unique=True))
    extra = data.draw(st.lists(st.tuples(NAME, st.sampled_from(g.relation_names + ("q",)),
                                         st.sampled_from(g.entity_names)), max_size=4))
    g_old = Snapshot.from_name_triples(kept + extra)
    assert_candidates_equal_the_name_loops(g_old, g)
    assert_candidates_equal_the_name_loops(g, g_old)
