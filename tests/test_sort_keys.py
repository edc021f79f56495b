"""Index orders by one sort key, and name ranks carried across a diff.

The pair and link indexes sort each array by one ``np.argsort`` over a
distinct int64 key.  Distinct keys have exactly one sorted order, so every
index must equal, bit for bit, what the multi-key ``np.lexsort`` and
stable-argsort expressions kept below give.  ``normalize_adjacency`` and
``_entity_contexts`` sort by row alone with a stable sort, relying on each
row's entries coming in column order; they must equal a ``np.lexsort`` by
(row, column).  An old snapshot's name ranks are carried over from the new
one's through the diff's id maps and must equal its own sort.
"""
import contextlib
import io

import numpy as np
from hypothesis import given, settings, strategies as st

import dkge.kg_store
from dkge.agcn import normalize_adjacency
from dkge.cli import main
from dkge.contexts import _entity_contexts, _ranges
from dkge.kg_store import (Snapshot, _name_rank, carry_name_ranks, diff_snapshots,
                           load_snapshot_dir, lookup)

from graphs import TOY_T1, TOY_T2, write_snapshot_dir

# -- the multi-key and stable sorts the builders used -------------------------


def reference_pairs(g: Snapshot) -> dict:
    n = g.num_entities
    h, r, t = g.triple_ids.T
    codes = h * n + g.name_rank[t]
    order = np.lexsort((r, codes))
    new = np.diff(codes[order], prepend=-1) != 0
    first = np.flatnonzero(new)
    keys = codes[order[first]]
    pair = np.empty(codes.size, dtype=np.intp)
    pair[order] = np.cumsum(new) - 1
    out = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys // n, minlength=n), out=out[1:])
    rptr = np.zeros(g.num_relations + 1, dtype=np.intp)
    np.cumsum(np.bincount(r, minlength=g.num_relations), out=rptr[1:])
    tails = t[order[first]]
    into = tails * n + g.name_rank[keys // n]
    into_pair = np.argsort(into, kind="stable")
    return dict(keys=keys, tails=tails, out=out, ptr=np.append(first, codes.size),
                rels=r[order], rptr=rptr, of_relation=pair[np.argsort(r, kind="stable")],
                into_keys=into[into_pair], into_pair=into_pair)


def reference_links(g: Snapshot) -> dict:
    n = g.num_entities
    h, t = g.triple_ids[:, 0], g.triple_ids[:, 2]
    u, v = np.concatenate((h, t)), np.concatenate((t, h))
    off = u != v
    u, v = u[off], g.name_rank[v[off]]
    order = np.lexsort((v, u))
    keys = u[order] * n + v[order]
    keys = keys[np.diff(keys, prepend=-1) != 0]
    loop = np.zeros(n, dtype=bool)
    loop[h[h == t]] = True
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys // n, minlength=n), out=ptr[1:])
    return dict(ptr=ptr, nbrs=np.argsort(g.name_rank, kind="stable")[keys % n], loop=loop,
                keys=keys)


def reference_normalize(sizes, edges, edge_counts):
    sizes = np.asarray(sizes, dtype=np.intp)
    counts = np.asarray(edge_counts, dtype=np.intp)
    pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    pairs = pairs + np.repeat(np.cumsum(sizes) - sizes, counts)[:, None]
    n = int(sizes.sum())
    loop = pairs[:, 0] == pairs[:, 1]
    i, j = pairs[~loop].T
    diag = np.arange(n)
    rows = np.concatenate((i, j, diag))
    cols = np.concatenate((j, i, diag))
    a_hat = np.concatenate((np.ones(2 * i.size),
                            1.0 + np.bincount(pairs[loop, 0], minlength=n)))
    order = np.lexsort((cols, rows))
    rows, cols, a_hat = rows[order], cols[order], a_hat[order]
    indptr = np.searchsorted(rows, np.arange(n + 1))
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(a_hat, indptr[:-1]))
    return indptr, cols, a_hat * inv_sqrt[rows] * inv_sqrt[cols]


def reference_entity_edges(g: Snapshot, owners: np.ndarray) -> np.ndarray:
    """``_entity_contexts``' edges, put in order by row, then column."""
    links, n_e, rank = g.links, g.num_entities, g.name_rank
    deg = np.diff(links.ptr)
    sizes = deg[owners] + 1
    first = np.cumsum(sizes) - sizes
    verts = np.empty(int(sizes.sum()), dtype=np.intp)
    neighbour = np.ones(verts.size, dtype=bool)
    neighbour[first] = False
    verts[first] = owners
    verts[neighbour] = links.nbrs[_ranges(links.ptr[owners], deg[owners])]
    context = np.repeat(np.arange(owners.size), sizes)
    local = np.arange(verts.size) - first[context]
    nbr = np.flatnonzero(neighbour)
    u = verts[nbr]
    above = np.searchsorted(links.keys, u * n_e + rank[u])
    count = links.ptr[u + 1] - above
    row = np.repeat(nbr, count)
    owner = owners[context[row]]
    at = lookup(links.keys, owner * n_e + rank[links.nbrs[_ranges(above, count)]])
    inside = at >= 0
    row = row[inside]
    loops = np.flatnonzero(links.loop[verts])
    rows = np.concatenate((loops, first[context[nbr]], row))
    pairs = np.concatenate((np.repeat(local[loops], 2).reshape(-1, 2),
                            np.stack((np.zeros_like(nbr), local[nbr]), axis=1),
                            np.stack((local[row], at[inside] - links.ptr[owner[inside]] + 1),
                                     axis=1)))
    return pairs[np.lexsort((pairs[:, 1], rows))]


# -- drawn snapshots and batches ----------------------------------------------

NAME = st.text(alphabet="ab'Zé", min_size=1, max_size=3)


@st.composite
def snapshots(draw):
    """Snapshots with self-loops, pairs linked by several relations, links
    in both directions, a relation that links a single pair, and shuffled
    file order."""
    ents = draw(st.lists(NAME, min_size=2, max_size=14, unique=True))
    rels = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    ent = st.integers(0, len(ents) - 1)
    rel = st.integers(0, len(rels) - 1)
    triples = draw(st.lists(st.tuples(ent, rel, ent), min_size=1, max_size=40))
    triples += [(h, (r + 1) % len(rels), t) for h, r, t in triples[:draw(st.integers(0, 8))]]
    triples += [(t, r, h) for h, r, t in triples[:draw(st.integers(0, 8))]]
    triples += [(e, draw(rel), e) for e in draw(st.lists(ent, max_size=4))]
    named = [(ents[h], rels[r], ents[t]) for h, r, t in triples]
    named.append((draw(st.sampled_from(ents)), "solo", draw(st.sampled_from(ents))))
    order = draw(st.permutations(range(len(named))))
    return Snapshot.from_name_triples([named[k] for k in order])


@given(g=snapshots())
@settings(max_examples=150, deadline=None)
def test_pairs_equal_the_lexsort_index(g):
    got, want = g.pairs, reference_pairs(g)
    assert g.pairs.rptr[g.relation_ids["solo"] + 1] - g.pairs.rptr[g.relation_ids["solo"]] == 1
    for field, array in want.items():
        assert np.array_equal(getattr(got, field), array), field
        assert getattr(got, field).dtype == array.dtype, field


@given(g=snapshots())
@settings(max_examples=150, deadline=None)
def test_links_equal_the_lexsort_index(g):
    got = g.links
    for field, array in reference_links(g).items():
        assert np.array_equal(getattr(got, field), array), field


@given(g=snapshots(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_entity_context_edges_equal_the_stable_sort(g, data):
    owners = np.array(data.draw(st.lists(st.integers(0, g.num_entities - 1), max_size=12)),
                      dtype=np.intp)
    got = _entity_contexts(g, owners).edges
    want = reference_entity_edges(g, owners)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def batches(draw):
    """Contexts of 1-7 vertices: unique edges (i, j), i <= j, with self-loops."""
    sizes, edges, counts = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 7))
        every = [(i, j) for i in range(n) for j in range(i, n)]
        chosen = sorted(draw(st.sets(st.sampled_from(every), max_size=len(every))))
        sizes.append(n)
        edges += chosen
        counts.append(len(chosen))
    return sizes, np.array(edges, dtype=np.intp).reshape(-1, 2), counts


@given(batch=batches())
@settings(max_examples=200, deadline=None)
def test_normalize_adjacency_equals_the_lexsort_matrix(batch):
    s = normalize_adjacency(*batch)
    for got, want in zip((s.indptr, s.indices, s.data), reference_normalize(*batch)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# -- carried name ranks -------------------------------------------------------

# shared prefixes, non-ASCII, case-only differences and a NUL character
RANKED_NAME = st.builds(str.__add__, st.sampled_from(["", "ab", "Ab", "ab\x00", "é"]),
                        st.text(alphabet="aAbB\x00é日", max_size=3)).filter(bool)


@st.composite
def churned_names(draw):
    """Old names, which of them survive (none, some or all), and emerging
    names, for entities or relations."""
    old = draw(st.lists(RANKED_NAME, min_size=1, max_size=25, unique=True))
    kept = draw(st.sampled_from(["none", "some", "all"]))
    if kept == "some":
        survivors = [n for n in old if draw(st.booleans())]
    else:
        survivors = old if kept == "all" else []
    emerging = draw(st.lists(RANKED_NAME.filter(lambda n: n not in old),
                             min_size=0 if survivors else 1, max_size=8, unique=True))
    new = draw(st.permutations(survivors + emerging))
    return old, new


def chain(entities, relations):
    """Triples using every name: entity k links to entity k + 1, the
    relations taking turns."""
    n = max(len(entities), len(relations))
    return [(entities[k % len(entities)], relations[k % len(relations)],
             entities[(k + 1) % len(entities)]) for k in range(n)]


@given(ents=churned_names(), rels=churned_names())
@settings(max_examples=200, deadline=None)
def test_carried_ranks_equal_the_sorted_ranks(ents, rels):
    g_old = Snapshot.from_name_triples(chain(ents[0], rels[0]))
    g_new = Snapshot.from_name_triples(chain(ents[1], rels[1]))
    diff = diff_snapshots(g_old, g_new)
    assert not {"name_rank", "relation_rank"} & set(vars(g_old))
    carry_name_ranks(g_old, g_new, diff)
    for got, names in ((vars(g_old)["name_rank"], g_old.entity_names),
                       (vars(g_old)["relation_rank"], g_old.relation_names)):
        want = _name_rank(names)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_diff_and_update_never_sort_the_old_names(tmp_path, monkeypatch):
    old, new = tmp_path / "t1", tmp_path / "t2"
    write_snapshot_dir(old, TOY_T1)
    write_snapshot_dir(new, TOY_T2)
    flags = ["--d", "8", "--lr", "0.01", "--batch", "8", "--margin", "2", "--max-epochs", "2"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", str(old), str(tmp_path / "m1"), *flags]) == 0
    old_names = load_snapshot_dir(old).train.entity_names
    new_names = load_snapshot_dir(new).train.entity_names
    sorted_names = []
    sort = dkge.kg_store._name_rank

    def recording_sort(names):
        sorted_names.append(names)
        return sort(names)

    monkeypatch.setattr(dkge.kg_store, "_name_rank", recording_sort)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["diff", str(old), str(new)]) == 0
        assert main(["update", str(old), str(new), str(tmp_path / "m1"), str(tmp_path / "m2"),
                     *flags]) == 0
    assert new_names in sorted_names
    assert old_names not in sorted_names
