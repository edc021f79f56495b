"""Context subgraphs: extraction, canonical signatures, capping, change detection."""
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dkge.contexts import (ContextTable, ENTITY, RELATION, RELATION_PATH,
                           build_context, candidate_changed_names,
                           changed_context_objects, context_signature,
                           entity_context, relation_context, signatures_by_name)
from dkge.kg_store import Snapshot, diff_snapshots

from graphs import TOY_T1, TOY_T2, churned_triples, random_name_triples, toy_snapshot


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
    assert sub.adjacency[i, j] == 1.0


def test_entity_context_vertices_sorted_by_name(g1):
    sub = entity_context(g1, g1.entity_id("e1"))
    names = entity_vertex_names(sub, g1)
    assert names[1:] == sorted(names[1:])


def test_entity_context_isolated_owner():
    g = Snapshot.from_name_triples([("a", "r", "a"), ("b", "r", "c")])
    sub = entity_context(g, g.entity_id("a"))
    assert len(sub.vertices) == 1
    assert sub.adjacency[0, 0] == 1.0  # self-loop triple keeps the diagonal


def test_entity_context_no_self_loop_without_triple(g1):
    sub = entity_context(g1, g1.entity_id("e1"))
    assert sub.adjacency[0, 0] == 0.0


def test_entity_context_adjacency_symmetric(g1):
    for name in g1.entity_names:
        sub = entity_context(g1, g1.entity_id(name))
        assert np.array_equal(sub.adjacency, sub.adjacency.T)


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
    assert sub.adjacency[0, 0] == 0.0


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
    assert sub.adjacency[i, j] == 0.0


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


def test_relation_context_midpoint_truncation(caplog):
    triples = [("a", "r", "b")]
    for i in range(8):
        triples.append(("a", "go", f"m{i}"))
        triples.append((f"m{i}", "back", "b"))
    g = Snapshot.from_name_triples(triples)
    with caplog.at_level(logging.WARNING):
        small = relation_context(g, g.relation_id("r"), max_midpoints=3)
    assert any("midpoint" in rec.message for rec in caplog.records)
    full = relation_context(g, g.relation_id("r"))
    assert len(small.vertices) <= len(full.vertices)
    # truncation is canonical: same call, same result
    again = relation_context(g, g.relation_id("r"), max_midpoints=3)
    assert small.signature == again.signature
    assert np.array_equal(small.adjacency, again.adjacency)


def test_build_context_dispatch(g1):
    e = build_context(g1, (ENTITY, g1.entity_id("e1")))
    r = build_context(g1, (RELATION, g1.relation_id("r1")))
    assert e.owner == (ENTITY, g1.entity_id("e1"))
    assert r.owner == (RELATION, g1.relation_id("r1"))
    with pytest.raises(ValueError):
        build_context(g1, ("nope", 0))


# -- signatures ---------------------------------------------------------------

def test_signature_invariant_to_file_order(g1):
    g1b = Snapshot.from_name_triples(list(reversed(TOY_T1)), time_step=1)
    assert signatures_by_name(g1) == signatures_by_name(g1b)


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
    capped = entity_context(g, g.entity_id("hub"), cap=35, rng=np.random.default_rng(0))
    assert len(capped.vertices) == 35
    assert capped.adjacency.shape == (35, 35)
    assert capped.vertices[0] == raw.vertices[0]
    assert capped.signature == raw.signature  # hash covers the uncapped context


def test_cap_sample_depends_on_rng():
    g = hub_snapshot()
    hub = g.entity_id("hub")
    a = entity_context(g, hub, cap=35, rng=np.random.default_rng(1))
    b = entity_context(g, hub, cap=35, rng=np.random.default_rng(2))
    assert a.vertices != b.vertices


def test_table_sampling_reproducible_across_instances():
    g = hub_snapshot()
    a = ContextTable(g, seed=7).entity(g.entity_id("hub"))
    b = ContextTable(g, seed=7).entity(g.entity_id("hub"))
    c = ContextTable(g, seed=8).entity(g.entity_id("hub"))
    assert a.vertices == b.vertices
    assert np.array_equal(a.adjacency, b.adjacency)
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
    assert np.array_equal(a.adjacency, b.adjacency)


# -- change detection ---------------------------------------------------------

def test_changed_context_objects_toy(g1, g2):
    changed = changed_context_objects(g1, g2)
    names = {(kind, (g2.entity_names if kind == ENTITY else g2.relation_names)[obj])
             for kind, obj in changed}
    assert names == {(ENTITY, "e1"), (ENTITY, "e3"), (ENTITY, "e6"),
                     (RELATION, "r5")}


def test_changed_context_objects_no_change(g1):
    other = Snapshot.from_name_triples(list(reversed(TOY_T1)), time_step=1)
    assert changed_context_objects(g1, other) == frozenset()


def test_candidates_cover_changed(g1, g2):
    ent_cand, rel_cand = candidate_changed_names(g1, g2, diff_snapshots(g1, g2))
    changed = changed_context_objects(g1, g2)
    for kind, obj in changed:
        if kind == ENTITY:
            assert g2.entity_names[obj] in ent_cand
        else:
            assert g2.relation_names[obj] in rel_cand


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_candidate_overapproximation_sound(seed):
    """Every signature-changed object is inside the candidate set."""
    rng = np.random.default_rng(seed)
    base = random_name_triples(rng, 25, 10, 4)
    g_old = Snapshot.from_name_triples(base)
    g_new = Snapshot.from_name_triples(churned_triples(rng, base), time_step=1)
    diff = diff_snapshots(g_old, g_new)
    ent_cand, rel_cand = candidate_changed_names(g_old, g_new, diff)
    for kind, obj in changed_context_objects(g_old, g_new, diff):
        if kind == ENTITY:
            assert g_new.entity_names[obj] in ent_cand
        else:
            assert g_new.relation_names[obj] in rel_cand
