"""Context subgraphs: extraction, canonical signatures, capping, change detection."""
import logging
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dkge.contexts as contexts
from dkge.agcn import normalize_adjacency
from dkge.contexts import (ContextArrays, ContextTable, ENTITY, RELATION, RELATION_PATH,
                           build_context, build_contexts,
                           candidate_relations, changed_context_objects, context_changes,
                           context_signature, entity_context, relation_context)
from dkge.kg_store import Snapshot, diff_snapshots
from dkge.training import collect_retrain_set

from graphs import (TOY_T1, TOY_T2, candidate_changed_names, churned_triples,
                    random_name_triples, reference_changes, retrain_set_by_loop,
                    signatures_by_name, split_refs, toy_snapshot)


def all_contexts(g):
    return ([entity_context(g, e) for e in range(g.num_entities)]
            + [relation_context(g, r) for r in range(g.num_relations)])


def entity_vertex_names(sub, g):
    return [g.entity_names[v.members[0]] for v in sub.vertices]


def relation_vertex_names(sub, g):
    return [tuple(g.relation_names[m] for m in v.members) for v in sub.vertices]


def named_edges(sub, names):
    return sorted((names[i], names[j]) for i, j in sub.edge_set() if i != j)


# -- entity contexts ----------------------------------------------------------

def test_entity_context_worked_example(g1):
    """Pinned oracle: context of e1 after the step-1 edge arrives."""
    sub = entity_context(g1, g1.entity_id("e1"))
    names = entity_vertex_names(sub, g1)
    assert names[0] == "e1"
    assert set(names) == {"e1", "e2", "e3", "e5", "e6"}
    assert named_edges(sub, names) == [
        ("e1", "e2"), ("e1", "e3"), ("e1", "e5"), ("e1", "e6"),
        ("e2", "e3"), ("e2", "e5")]


def test_entity_context_includes_neighbor_neighbor_edges(g1):
    # e2-e5 is an edge between two neighbors of e1, not through e1 itself
    sub = entity_context(g1, g1.entity_id("e1"))
    names = entity_vertex_names(sub, g1)
    i, j = names.index("e2"), names.index("e5")
    assert (i, j) in sub.edge_set()


def test_entity_context_vertices_sorted_by_name(g1):
    sub = entity_context(g1, g1.entity_id("e1"))
    names = entity_vertex_names(sub, g1)
    assert names[1:] == sorted(names[1:])


def test_entity_context_isolated_owner():
    g = Snapshot.from_name_triples([("a", "r", "a"), ("b", "r", "c")])
    sub = entity_context(g, g.entity_id("a"))
    assert len(sub.vertices) == 1
    assert sub.edge_set() == {(0, 0)}  # a self-loop triple is the edge (0, 0)


def test_entity_context_no_self_loop_without_triple(g1):
    sub = entity_context(g1, g1.entity_id("e1"))
    assert (0, 0) not in sub.edge_set()


def encoder_adjacency(sub):
    """Dense S = D^{-1/2} (A + I) D^{-1/2} the encoder builds for one context."""
    return normalize_adjacency([len(sub.vertices)], sub.edges, [len(sub.edges)]).toarray()


def test_entity_context_adjacency_symmetric(g1):
    for name in g1.entity_names:
        s = encoder_adjacency(entity_context(g1, g1.entity_id(name)))
        assert np.array_equal(s, s.T)


def test_edge_set_matches_adjacency_scan(g2):
    """A dense 0/1 adjacency filled from the edges, scanned over i <= j,
    gives back ``edge_set``, and it is the adjacency the encoder normalises."""
    for sub in all_contexts(g2):
        m = len(sub.vertices)
        a = np.zeros((m, m))
        a[sub.edges[:, 0], sub.edges[:, 1]] = a[sub.edges[:, 1], sub.edges[:, 0]] = 1.0
        want = {(i, j) for i in range(m) for j in range(i, m) if a[i, j]}
        assert sub.edge_set() == want
        a_hat = a + np.eye(m)
        inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
        np.testing.assert_allclose(encoder_adjacency(sub),
                                   a_hat * np.outer(inv_sqrt, inv_sqrt), rtol=1e-15)


def test_context_edges_sorted_unique_in_range(g1, g2):
    """Every context's edges are an (m, 2) intp array of pairs i <= j inside
    the context, unique and in ascending order, and ``edge_set`` holds
    exactly its rows."""
    subs = all_contexts(g1) + all_contexts(g2)
    table = ContextTable(hub_snapshot(), cap=5)
    subs += [table.entity(e) for e in range(table.snapshot.num_entities)]
    for sub in subs:
        n, e = len(sub.vertices), sub.edges
        assert e.dtype == np.intp and e.ndim == 2 and e.shape[1] == 2
        assert np.all((0 <= e[:, 0]) & (e[:, 0] <= e[:, 1]) & (e[:, 1] < n))
        assert np.all(np.diff(e[:, 0] * n + e[:, 1]) > 0)
        assert sub.edge_set() == {tuple(pair) for pair in e.tolist()}


def linked_pairs(g):
    """Unordered entity pairs joined by at least one triple, self-loops as
    one-element sets."""
    return {frozenset((h, t)) for h, _, t in g.triples}


@pytest.mark.parametrize("seed", range(4))
def test_entity_context_edges_match_brute_force(seed, g1, g2):
    """An entity context has the edge (i, j) exactly when some triple joins
    its vertices i and j, in either direction, i == j included."""
    rng = np.random.default_rng(seed)
    graphs = [g1, g2, Snapshot.from_name_triples(random_name_triples(rng, 60, 12, 3))]
    assert any(h == t for h, _, t in graphs[2].triples)
    for g in graphs:
        linked = linked_pairs(g)
        for e in range(g.num_entities):
            sub = entity_context(g, e)
            ids = [v.members[0] for v in sub.vertices]
            want = {(i, j) for i in range(len(ids)) for j in range(i, len(ids))
                    if frozenset((ids[i], ids[j])) in linked}
            assert sub.edge_set() == want


# -- relation contexts --------------------------------------------------------

def test_relation_context_worked_example(g1):
    """Pinned oracle: paths for r1 = {(r1,r2) via e1->e5, (r5,r4) via e1->e2}."""
    sub = relation_context(g1, g1.relation_id("r1"))
    names = relation_vertex_names(sub, g1)
    assert names[0] == ("r1",)
    assert set(names) == {("r1",), ("r1", "r2"), ("r5", "r4")}
    assert named_edges(sub, names) == [
        (("r1",), ("r1", "r2")), (("r1",), ("r5", "r4"))]


def test_relation_context_length_one_paths_exclude_owner():
    # parallel edge: s connects the same pair as r, r itself never a path
    g = Snapshot.from_name_triples([("a", "r", "b"), ("a", "s", "b")])
    sub = relation_context(g, g.relation_id("r"))
    names = relation_vertex_names(sub, g)
    assert names == [("r",), ("s",)]


def test_relation_context_no_paths():
    g = Snapshot.from_name_triples([("a", "r", "b"), ("c", "s", "d")])
    sub = relation_context(g, g.relation_id("r"))
    assert len(sub.vertices) == 1
    assert (0, 0) not in sub.edge_set()


def test_relation_context_same_pair_paths_are_linked():
    # two distinct 2-hop paths over the same pair become adjacent vertices
    g = Snapshot.from_name_triples([
        ("a", "r", "b"),
        ("a", "s", "m"), ("m", "s2", "b"),
        ("a", "u", "k"), ("k", "u2", "b")])
    sub = relation_context(g, g.relation_id("r"))
    names = relation_vertex_names(sub, g)
    assert set(names) == {("r",), ("s", "s2"), ("u", "u2")}
    edges = named_edges(sub, names)
    assert (("s", "s2"), ("u", "u2")) in edges or (("u", "u2"), ("s", "s2")) in edges


def test_relation_context_paths_not_linked_across_pairs(g1):
    sub = relation_context(g1, g1.relation_id("r1"))
    names = relation_vertex_names(sub, g1)
    i, j = names.index(("r1", "r2")), names.index(("r5", "r4"))
    assert (min(i, j), max(i, j)) not in sub.edge_set()


def test_relation_context_allows_cycles_through_endpoints():
    # midpoint may equal an endpoint: a -r-> a gives paths through a itself
    g = Snapshot.from_name_triples([("a", "r", "b"), ("a", "s", "a"), ("a", "u", "b")])
    sub = relation_context(g, g.relation_id("r"))
    names = relation_vertex_names(sub, g)
    assert ("s", "u") in names  # a -s-> a -u-> b


def test_relation_context_dedupes_paths_across_pairs():
    # same relation pair realized over two entity pairs appears once
    g = Snapshot.from_name_triples([
        ("a", "r", "b"), ("c", "r", "d"),
        ("a", "s", "b"), ("c", "s", "d")])
    sub = relation_context(g, g.relation_id("r"))
    names = relation_vertex_names(sub, g)
    assert names.count(("s",)) == 1


def test_relation_context_midpoint_truncation(caplog, monkeypatch):
    triples = [("a", "r", "b")]
    for i in range(8):
        triples.append(("a", "go", f"m{i}"))
        triples.append((f"m{i}", "back", "b"))
    g = Snapshot.from_name_triples(triples)
    full = relation_context(g, g.relation_id("r"))
    monkeypatch.setattr(contexts, "MAX_MIDPOINTS", 3)
    with caplog.at_level(logging.WARNING):
        small = relation_context(g, g.relation_id("r"))
    assert any("midpoint" in rec.message for rec in caplog.records)
    assert len(small.vertices) <= len(full.vertices)
    # truncation is canonical: same call, same result
    again = relation_context(g, g.relation_id("r"))
    assert context_signature(small, g) == context_signature(again, g)
    assert np.array_equal(small.edges, again.edges)


def test_build_context_dispatch(g1):
    e = build_context(g1, (ENTITY, g1.entity_id("e1")))
    r = build_context(g1, (RELATION, g1.relation_id("r1")))
    assert e.owner == (ENTITY, g1.entity_id("e1"))
    assert r.owner == (RELATION, g1.relation_id("r1"))
    with pytest.raises(ValueError):
        build_context(g1, ("nope", 0))


# -- signatures ---------------------------------------------------------------

def test_signature_invariant_to_file_order(g1):
    """A snapshot loaded from a reshuffled file assigns other ids; the
    signatures agree and the detector reports no change."""
    g1b = Snapshot.from_name_triples(list(reversed(TOY_T1)))
    assert g1b.entity_names != g1.entity_names
    assert signatures_by_name(g1) == signatures_by_name(g1b)
    changed = context_changes(g1, g1b, diff_snapshots(g1, g1b))
    assert [ids.size for ids in changed[:2]] == [0, 0]


def test_signature_distinguishes_kinds():
    g = Snapshot.from_name_triples([("x", "x", "x")])
    e = entity_context(g, 0)
    r = relation_context(g, 0)
    assert context_signature(e, g) != context_signature(r, g)


def test_signature_sensitive_to_edges():
    g_star = Snapshot.from_name_triples([("a", "r", "b"), ("a", "r", "c")])
    g_tri = Snapshot.from_name_triples([("a", "r", "b"), ("a", "r", "c"), ("b", "r", "c")])
    sa = context_signature(entity_context(g_star, 0), g_star)
    sb = context_signature(entity_context(g_tri, 0), g_tri)
    assert sa != sb  # same vertex set, extra neighbor-neighbor edge


def test_signature_unchanged_for_distant_edit(g1, g2):
    sigs1 = signatures_by_name(g1)
    sigs2 = signatures_by_name(g2)
    for name in ("e2", "e4", "e5"):
        assert sigs1[(ENTITY, name)] == sigs2[(ENTITY, name)]
    for name in ("r2", "r3", "r4", "r6"):
        assert sigs1[(RELATION, name)] == sigs2[(RELATION, name)]


# -- capping ------------------------------------------------------------------

def hub_snapshot(n=60):
    triples = [("hub", "r", f"leaf{i:03d}") for i in range(n)]
    return Snapshot.from_name_triples(triples)


def test_cap_keeps_owner_and_size():
    g = hub_snapshot()
    raw = entity_context(g, g.entity_id("hub"))
    assert len(raw.vertices) == 61
    capped = ContextTable(g, cap=35).entity(g.entity_id("hub"))
    assert len(capped.vertices) == 35
    assert capped.edge_set() == {(0, i) for i in range(1, 35)}
    assert capped.vertices[0] == raw.vertices[0]


@pytest.mark.parametrize("seed", range(3))
def test_capped_context_is_induced_subgraph(seed):
    """A capped context keeps exactly the edges of the uncapped one between
    the vertices it keeps."""
    rng = np.random.default_rng(seed)
    g = Snapshot.from_name_triples(random_name_triples(rng, 300, 30, 3))
    table = ContextTable(g, cap=8, seed=seed)
    capped_count = 0
    for raw in all_contexts(g):
        sub = table.get(raw.owner)
        if len(raw.vertices) <= table.cap:
            assert np.array_equal(sub.edges, raw.edges)
            continue
        capped_count += 1
        at = [raw.vertices.index(v) for v in sub.vertices]
        assert at == sorted(at) and len(sub.vertices) == table.cap
        want = {(a, b) for a in range(len(at)) for b in range(a, len(at))
                if (at[a], at[b]) in raw.edge_set()}
        assert sub.edge_set() == want
    assert capped_count > 20


def test_changes_cover_the_uncapped_context():
    """An edit among the hub's neighbours that its capped sample leaves out
    is still a change of the hub's context."""
    g = hub_snapshot()
    table = ContextTable(g, cap=3)
    kept = {g.entity_names[v.members[0]] for v in table.entity(g.entity_id("hub")).vertices}
    a, b = sorted({f"leaf{i:03d}" for i in range(60)} - kept)[:2]
    g_new = Snapshot.from_name_triples(list(g.name_triples()) + [(a, "r", b)])
    diff = diff_snapshots(g, g_new)
    new_table = ContextTable(g_new, cap=3)
    assert [v.members for v in new_table.entity(g_new.entity_id("hub")).vertices] == [
        (g_new.entity_id(g.entity_names[v.members[0]]),)
        for v in table.entity(g.entity_id("hub")).vertices]
    changed = context_changes(g, g_new, diff)
    assert g_new.entity_id("hub") in changed[0].tolist()
    assert [ids.tolist() for ids in changed[:2]] == [
        ids.tolist() for ids in split_refs(changed_context_objects(g, g_new))]


def test_cap_sample_depends_on_rng():
    g = hub_snapshot()
    hub = g.entity_id("hub")
    a = ContextTable(g, cap=35, seed=1).entity(hub)
    b = ContextTable(g, cap=35, seed=2).entity(hub)
    assert a.vertices != b.vertices


def test_table_sampling_reproducible_across_instances():
    g = hub_snapshot()
    a = ContextTable(g, seed=7).entity(g.entity_id("hub"))
    b = ContextTable(g, seed=7).entity(g.entity_id("hub"))
    c = ContextTable(g, seed=8).entity(g.entity_id("hub"))
    assert a.vertices == b.vertices
    assert np.array_equal(a.edges, b.edges)
    assert a.vertices != c.vertices


def test_table_sampling_stable_across_snapshots_sharing_object():
    """An unchanged hub entity samples the same context in a grown snapshot."""
    g = hub_snapshot()
    grown = Snapshot.from_name_triples(
        list(g.name_triples()) + [("other", "s", "thing")])
    a = ContextTable(g, seed=3).entity(g.entity_id("hub"))
    b = ContextTable(grown, seed=3).entity(grown.entity_id("hub"))
    a_names = [tuple(g.entity_names[m] for m in v.members) for v in a.vertices]
    b_names = [tuple(grown.entity_names[m] for m in v.members) for v in b.vertices]
    assert a_names == b_names
    assert np.array_equal(a.edges, b.edges)


def test_table_draws_no_rng_for_contexts_within_cap(g1, monkeypatch):
    def no_rng(*args):
        raise AssertionError("derived an rng for a context within the cap")

    monkeypatch.setattr("dkge.contexts._object_seed", no_rng)
    ContextTable(g1, cap=35).build_all()
    with pytest.raises(AssertionError):
        ContextTable(g1, cap=2).entity(g1.entity_id("e1"))


def test_contexts_of_named_objects_only(g1):
    """``build_contexts`` gives the uncapped contexts of the ids it is
    given, in their order, as the one-object definitions build them."""
    e1, e3 = g1.entity_id("e1"), g1.entity_id("e3")
    r5 = g1.relation_id("r5")
    for kind, ids in ((ENTITY, [e3, e1]), (RELATION, [r5]), (ENTITY, [])):
        ctx = build_contexts(g1, kind, ids)
        subs = [build_context(g1, (kind, obj)) for obj in ids]
        assert ctx.owners.tolist() == ids
        assert ctx.sizes.tolist() == [len(sub.vertices) for sub in subs]
        assert ctx.members.tolist() == [m for sub in subs for v in sub.vertices
                                        for m in v.members]
        assert ctx.edges.tolist() == [e for sub in subs for e in sub.edges.tolist()]


def test_contexts_cache_the_capped_context(monkeypatch):
    """``build`` builds each context once; ``get`` then serves the same
    capped sample a fresh table builds.  Counts the owners the bulk builder
    receives."""
    import dkge.contexts
    g = hub_snapshot()
    built = []
    build = dkge.contexts.build_contexts

    def counted(snapshot, kind, owners, *args):
        built.extend((kind, obj) for obj in owners.tolist())
        return build(snapshot, kind, owners, *args)

    monkeypatch.setattr(dkge.contexts, "build_contexts", counted)
    table = ContextTable(g, cap=5, seed=3)
    table.build(ENTITY, np.arange(g.num_entities))
    table.build(RELATION, np.arange(g.num_relations))
    table.build_all()
    assert sorted(built) == sorted(set(built))
    assert len(built) == g.num_entities + g.num_relations
    hub = table.entity(g.entity_id("hub"))
    fresh = ContextTable(g, cap=5, seed=3).entity(g.entity_id("hub"))
    assert len(hub.vertices) == 5
    assert hub.vertices == fresh.vertices
    assert np.array_equal(hub.edges, fresh.edges)


# -- change detection ---------------------------------------------------------

def test_changed_contexts_toy(g1, g2, monkeypatch):
    """The toy trace's changes; the detector builds the contexts of the
    relation candidates only, on g1 those that survived, then on g2 all."""
    import dkge.contexts
    diff = diff_snapshots(g1, g2)
    rel_cand = candidate_changed_names(g1, g2, diff)
    built = []
    build = dkge.contexts.build_contexts

    def counted(snapshot, kind, owners, *args):
        built.append((snapshot, kind, sorted(owners.tolist())))
        return build(snapshot, kind, owners, *args)

    monkeypatch.setattr(dkge.contexts, "build_contexts", counted)
    changed = context_changes(g1, g2, diff)
    want = split_refs(changed_context_objects(g1, g2))
    assert [ids.tolist() for ids in changed[:2]] == [ids.tolist() for ids in want]
    assert built == [
        (g1, RELATION, sorted(g1.relation_ids[n] for n in rel_cand if n in g1.relation_ids
                              and n in g2.relation_ids)),
        (g2, RELATION, sorted(g2.relation_ids[n] for n in rel_cand if n in g2.relation_ids))]


@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       limit=st.sampled_from([0, 1, 2, contexts.MAX_MIDPOINTS]))
@settings(max_examples=30, deadline=None)
def test_context_changes_equal_the_reference(seed, limit):
    """The detector finds what comparing ``context_signature``s one object
    at a time finds, every entity and the relation candidates, under any
    midpoint limit patched into ``contexts.MAX_MIDPOINTS``, on churned pairs with self-loops and parallel
    relations, where the churn also adds and removes self-loops, removes
    every triple of an entity, adds entities and shuffles the file order;
    under the default bound that is ``changed_context_objects``, and the
    retrain set built on it equals the loop's, in (h, r, t) order.  The
    contexts it returns are g_new's of the emerging and changed relations."""
    rng = np.random.default_rng(seed)
    base = random_name_triples(rng, int(rng.integers(5, 60)), 12, 4)
    base += [(h, r, h) for h, r, _ in base[:int(rng.integers(0, 4))]]
    base += [(h, "r0" if r != "r0" else "r1", t) for h, r, t in base[:int(rng.integers(0, 6))]]
    base = list(dict.fromkeys(base))
    new = churned_triples(rng, base, churn=0.3)
    names = sorted({e for h, _, t in new for e in (h, t)})
    gone = names[int(rng.integers(len(names)))]
    new += [(names[k], "r0", names[k]) for k in rng.integers(len(names), size=3).tolist()]
    new = [t for t in new if gone not in (t[0], t[2]) and (t[0] != t[2] or rng.random() < 0.7)]
    new = list(dict.fromkeys(new + [("y0", "r1", names[int(rng.integers(len(names)))])]))
    g_old = Snapshot.from_name_triples(base)
    g_new = Snapshot.from_name_triples([new[k] for k in rng.permutation(len(new)).tolist()])
    diff = diff_snapshots(g_old, g_new)
    with mock.patch.object(contexts, "MAX_MIDPOINTS", limit):
        changed = context_changes(g_old, g_new, diff)
        want = reference_changes(g_old, g_new, diff, (np.arange(g_new.num_entities),
                                                      candidate_relations(g_new, diff)))
        moved = np.union1d(diff.emerging_relations, changed.relations)
        built = build_contexts(g_new, RELATION, moved)
    assert [ids.tolist() for ids in changed[:2]] == [ids.tolist() for ids in want]
    for field in fields(ContextArrays):
        assert (getattr(changed.relation_contexts, field.name).tolist()
                == getattr(built, field.name).tolist())
    if limit == contexts.MAX_MIDPOINTS:
        reference = changed_context_objects(g_old, g_new)
        assert [ids.tolist() for ids in changed[:2]] == [ids.tolist()
                                                         for ids in split_refs(reference)]
        t_ol = collect_retrain_set(g_new, diff, changed)
        assert t_ol.tolist() == sorted(map(list, retrain_set_by_loop(g_new, diff, reference)))


def test_changes_see_members_regroup_into_paths():
    """r's paths regroup from (a), (b, c) to (a, b), (c): the member
    sequence, sizes and edges stay the same, only the grouping differs."""
    g_old = Snapshot.from_name_triples([("x", "r", "y"), ("x", "a", "y"), ("x", "b", "m"),
                                        ("m", "c", "y")])
    g_new = Snapshot.from_name_triples([("x", "r", "y"), ("x", "a", "m"), ("m", "b", "y"),
                                        ("x", "c", "y")])
    r = g_new.relation_id("r")
    diff = diff_snapshots(g_old, g_new)
    changed = context_changes(g_old, g_new, diff)
    assert r in changed[1].tolist()
    assert [ids.tolist() for ids in changed[:2]] == [
        ids.tolist() for ids in split_refs(changed_context_objects(g_old, g_new))]


def test_changed_context_objects_toy(g1, g2):
    changed = changed_context_objects(g1, g2)
    names = {(kind, (g2.entity_names if kind == ENTITY else g2.relation_names)[obj])
             for kind, obj in changed}
    assert names == {(ENTITY, "e1"), (ENTITY, "e3"), (ENTITY, "e6"),
                     (RELATION, "r5")}


def test_changed_context_objects_no_change(g1):
    other = Snapshot.from_name_triples(list(reversed(TOY_T1)))
    assert changed_context_objects(g1, other) == frozenset()


def test_candidates_cover_changed(g1, g2):
    rel_ids = candidate_relations(g2, diff_snapshots(g1, g2))
    changed = changed_context_objects(g1, g2)
    assert {obj for kind, obj in changed if kind == RELATION} <= set(rel_ids.tolist())


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_candidate_overapproximation_sound(seed):
    """Every signature-changed relation is inside the candidate set."""
    rng = np.random.default_rng(seed)
    base = random_name_triples(rng, 25, 10, 4)
    g_old = Snapshot.from_name_triples(base)
    g_new = Snapshot.from_name_triples(churned_triples(rng, base))
    diff = diff_snapshots(g_old, g_new)
    rel_ids = candidate_relations(g_new, diff)
    changed = changed_context_objects(g_old, g_new)
    assert {obj for kind, obj in changed if kind == RELATION} <= set(rel_ids.tolist())
