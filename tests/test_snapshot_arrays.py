"""Command-path functions on ``Snapshot.triple_ids`` against their loop
definitions.

``from_name_triples``, ``diff_snapshots``, ``relation_stats``,
``collect_retrain_set`` and ``_holdout_validation`` read the int64 triple
array.  Each must give exactly what its first definition, a Python loop over
the name or id triples kept below as the oracle, gives: the same ids, the same
sets, statistics equal bit for bit, and the same validation triples in the
same order for the same rng.  Inputs include duplicate lines, self-loops, and
removed and emerging entities and relations.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from dkge.contexts import ENTITY, RELATION
from dkge.kg_store import IdMap, Snapshot, Triple, diff_snapshots
from dkge.model import RelationStats, relation_stats
from dkge.training import _holdout_validation, collect_retrain_set

from graphs import retrain_set_by_loop, row_triples, split_refs


# -- the loop definitions ------------------------------------------------------


def intern_by_loop(name_triples):
    entity_ids, relation_ids = {}, {}
    triples, seen = [], set()
    for h, r, t in name_triples:
        triple = Triple(entity_ids.setdefault(h, len(entity_ids)),
                        relation_ids.setdefault(r, len(relation_ids)),
                        entity_ids.setdefault(t, len(entity_ids)))
        if triple not in seen:
            seen.add(triple)
            triples.append(triple)
    return (tuple(triples), tuple(entity_ids), tuple(relation_ids),
            len(name_triples) - len(triples))


def diff_by_names(g_old, g_new):
    """The ``SnapshotDiff`` fields and properties as lists, the triples in
    file order and the objects ascending, plus the id maps."""
    old_names = set(g_old.name_triples())
    new_names = set(g_new.name_triples())
    old_e, new_e = set(g_old.entity_names), set(g_new.entity_names)
    old_r, new_r = set(g_old.relation_names), set(g_new.relation_names)
    return dict(
        added_triples=[list(g_new.resolve(nt)) for nt in g_new.name_triples()
                       if nt not in old_names],
        deleted_triples=[list(g_old.resolve(nt)) for nt in g_old.name_triples()
                         if nt not in new_names],
        emerging_entities=sorted(g_new.entity_ids[n] for n in new_e - old_e),
        emerging_relations=sorted(g_new.relation_ids[n] for n in new_r - old_r),
        removed_entities=sorted(g_old.entity_ids[n] for n in old_e - new_e),
        removed_relations=sorted(g_old.relation_ids[n] for n in old_r - new_r),
        entity_map=id_map_by_names(g_old.entity_names, g_new.entity_names),
        relation_map=id_map_by_names(g_old.relation_names, g_new.relation_names))


def id_map_by_names(old_names, new_names):
    old_ids = {n: i for i, n in enumerate(old_names)}
    new_ids = {n: i for i, n in enumerate(new_names)}
    return IdMap(np.array([new_ids.get(n, -1) for n in old_names], dtype=np.intp),
                 np.array([old_ids.get(n, -1) for n in new_names], dtype=np.intp))


def relation_stats_by_loop(snapshot):
    n_r = snapshot.num_relations
    counts = np.zeros(n_r)
    heads = [set() for _ in range(n_r)]
    tails = [set() for _ in range(n_r)]
    for h, r, t in snapshot.triples:
        counts[r] += 1
        heads[r].add(h)
        tails[r].add(t)
    return RelationStats(
        tph=counts / np.array([len(s) for s in heads], dtype=np.float64),
        hpt=counts / np.array([len(s) for s in tails], dtype=np.float64))


def holdout_by_loop(g_new, t_ol, rng):
    ent_count, rel_count = {}, {}
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


# -- inputs --------------------------------------------------------------------


def draw_triples(rng, n, entities, relations):
    """``n`` uniform name triples over the given id ranges: duplicates and
    self-loops are frequent on a small vocabulary."""
    return [(f"e{rng.integers(*entities)}", f"r{rng.integers(*relations)}",
             f"e{rng.integers(*entities)}") for _ in range(n)]


@st.composite
def snapshot_pairs(draw):
    """Name triples of two steps: the new one keeps part of the old lines
    and draws the rest over a shifted vocabulary, so some objects are
    removed and some emerge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_e, n_r = draw(st.integers(1, 30)), draw(st.integers(1, 5))
    shift_e, shift_r = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    old = draw_triples(rng, draw(st.integers(1, 400)), (0, n_e), (0, n_r))
    kept = draw(st.floats(0, 1))
    new = ([nt for nt in old if rng.random() < kept]
           + draw_triples(rng, draw(st.integers(1, 60)), (shift_e, n_e + shift_e),
                          (shift_r, n_r + shift_r)))
    rng.shuffle(new)
    return old, new


def changed_objects(rng, g):
    """A random set of (kind, id) objects of ``g``."""
    return ({(ENTITY, e) for e in range(g.num_entities) if rng.random() < 0.1}
            | {(RELATION, r) for r in range(g.num_relations) if rng.random() < 0.1})


# -- properties ----------------------------------------------------------------


@given(pair=snapshot_pairs())
@settings(max_examples=80, deadline=None)
def test_interning_equals_the_loop(pair):
    for lines in pair:
        g = Snapshot.from_name_triples(lines, duplicates_collapsed=2)
        triples, entities, relations, dups = intern_by_loop(lines)
        assert g.triples == triples
        assert (g.entity_names, g.relation_names) == (entities, relations)
        assert g.duplicates_collapsed == dups + 2
        assert g.triple_ids.dtype == np.int64 and not g.triple_ids.flags.writeable
        assert g.name_triples() == tuple(g.triple_names(t) for t in triples)


@given(pair=snapshot_pairs())
@settings(max_examples=80, deadline=None)
def test_diff_equals_the_name_sets(pair):
    g_old, g_new = (Snapshot.from_name_triples(lines) for lines in pair)
    for a, b in ((g_old, g_new), (g_new, g_old), (g_old, g_old)):
        got, want = diff_snapshots(a, b), diff_by_names(a, b)
        for name in ("added_triples", "deleted_triples", "emerging_entities",
                     "emerging_relations", "removed_entities", "removed_relations"):
            assert getattr(got, name).tolist() == want[name]
        assert got.added_triples.dtype == got.deleted_triples.dtype == np.int64
        assert got.added_triples.shape[1:] == got.deleted_triples.shape[1:] == (3,)
        for mine, by_names in ((got.entity_map, want["entity_map"]),
                               (got.relation_map, want["relation_map"])):
            assert mine.to_new.tolist() == by_names.to_new.tolist()
            assert mine.to_old.tolist() == by_names.to_old.tolist()


@given(pair=snapshot_pairs())
@settings(max_examples=80, deadline=None)
def test_relation_stats_equal_the_loop_bit_for_bit(pair):
    for lines in pair:
        g = Snapshot.from_name_triples(lines)
        got, want = relation_stats(g), relation_stats_by_loop(g)
        assert got.tph.dtype == got.hpt.dtype == np.float64
        assert got.tph.tobytes() == want.tph.tobytes()
        assert got.hpt.tobytes() == want.hpt.tobytes()


@given(pair=snapshot_pairs(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_retrain_set_and_holdout_equal_the_loops(pair, seed):
    g_old, g_new = (Snapshot.from_name_triples(lines) for lines in pair)
    diff = diff_snapshots(g_old, g_new)
    rng = np.random.default_rng(seed)
    changed = changed_objects(rng, g_new)
    t_ol = collect_retrain_set(g_new, diff, split_refs(changed))
    assert t_ol.tolist() == sorted(map(list, retrain_set_by_loop(g_new, diff, changed)))
    emerging_only = collect_retrain_set(g_new, diff, split_refs(set()))
    assert emerging_only.tolist() == sorted(map(list, retrain_set_by_loop(g_new, diff, set())))
    for retrained in (t_ol, np.empty((0, 3), dtype=np.int64)):
        got = _holdout_validation(g_new, retrained, np.random.default_rng(seed))
        assert got == holdout_by_loop(g_new, row_triples(retrained),
                                      np.random.default_rng(seed))
        assert all(type(t) is Triple and type(t.head) is int for t in got)
