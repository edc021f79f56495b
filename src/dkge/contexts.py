"""Context subgraphs for entities and relations.

The context of an entity e is the undirected subgraph induced on e and its
one-hop neighbors, including the edges among the neighbors themselves.  The
context of a relation r contains r plus every relation path of length 1 or 2
(following triple direction) that connects an ordered entity pair also linked
by r; r is adjacent to every path vertex, and two path vertices are adjacent
iff some pair is connected by both.

A context keeps its edges as one sorted array of vertex index pairs
(``ContextSubgraph``), PyG's ``edge_index`` (arXiv 1903.02428) in one
orientation; ``agcn.normalize_adjacency`` mirrors it for the encoder.
``entity_context``, ``relation_context`` and ``context_signature`` are the
readable definitions, one object at a time.

The run-time path works on many contexts at once, in flat arrays
(``ContextArrays``): ``build_contexts`` builds the entity contexts of many
owners from the snapshot's CSR links (``Snapshot.links``) and their relation
contexts from its sorted pair index (``Snapshot.pairs``), exactly as the
definitions give them.  It is the one build path: it splits a large build
into chunks of bounded work and logs one truncation warning per call.  A
``ContextTable`` samples contexts above the vertex cap down (owner always
kept) and stores per kind, in flat arrays, only what an encoder pass reads:
each context's vertex members and its normalised S entries, computed once
when the context is built.  A pass gathers its contexts from there by index
arithmetic (``ContextTable.gather``).
``context_changes``, the one detector ``dkge diff`` and ``dkge update``
call, finds what ``changed_context_objects`` finds by comparing
``context_signature``s, content hashes over names, and reports id arrays.
It builds no entity context: an entity's context changes exactly when a
link changes at it or between two of its neighbours, and only a pair that
an added or deleted triple joins can change.  Relations are compared as
*uncapped* contexts of ``candidate_relations``, built on both snapshots,
old ids mapped to new ones.  It stores nothing, and returns g_new's
contexts of the emerging and changed relations with the ids;
``dkge update``'s table stores capped copies of those
(``ContextTable.add``) and builds the other capped contexts it encodes
later.
"""
from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, fields
from itertools import combinations
from typing import Iterable, NamedTuple

import numpy as np
from scipy import sparse

from . import agcn
from .errors import ConfigError, UnknownObjectError
from .kg_store import Snapshot, SnapshotDiff

logger = logging.getLogger(__name__)

ENTITY = "entity"
RELATION = "relation"
RELATION_PATH = "relation-path"

# (kind, id) with kind in {ENTITY, RELATION}
ObjectRef = tuple[str, int]
# per kind arrays, entities first: (entity ids, relation ids) or their rows
IdArrays = tuple[np.ndarray, np.ndarray]

DEFAULT_CAP = 35
DEFAULT_MAX_MIDPOINTS = 1000
# Work one bulk build step takes on: link-list entries an entity context
# scans, or out-pairs a relation context scans for midpoints; bounds the
# step's temporaries.
BUILD_CHUNK = 1 << 16


@dataclass(frozen=True)
class ContextVertex:
    """One vertex of a context subgraph.

    ``members`` holds a single object id for entity/relation vertices and
    one or two relation ids for relation-path vertices.
    """

    kind: str
    members: tuple[int, ...]


@dataclass
class ContextSubgraph:
    """Vertices, owner first, and ``edges``: an (m, 2) intp array of vertex
    index pairs (i, j), i <= j, unique and in ascending order; (i, i) is a
    self-loop triple."""

    owner: ObjectRef
    vertices: tuple[ContextVertex, ...]
    edges: np.ndarray

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Edges as (i, j) index pairs with i <= j."""
        return frozenset(map(tuple, self.edges.tolist()))


def _edge_array(pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    return np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2)


def _vertex_name_key(vertex: ContextVertex, snapshot: Snapshot) -> tuple:
    if vertex.kind == ENTITY:
        return (vertex.kind, tuple(snapshot.entity_names[m] for m in vertex.members))
    return (vertex.kind, tuple(snapshot.relation_names[m] for m in vertex.members))


def context_signature(subgraph: ContextSubgraph, snapshot: Snapshot) -> int:
    """Content hash of a context over canonically sorted vertices and edges.

    Names, not ids, enter the hash, so two snapshots of the same graph loaded
    from differently ordered files produce identical signatures.
    """
    keys = [_vertex_name_key(v, snapshot) for v in subgraph.vertices]
    edges = [tuple(sorted((keys[i], keys[j]))) for i, j in subgraph.edges.tolist()]
    payload = repr((subgraph.owner[0], sorted(keys), sorted(edges)))
    return int.from_bytes(hashlib.blake2b(payload.encode("utf-8"), digest_size=16).digest(),
                          "big")


def entity_context(snapshot: Snapshot, e: int) -> ContextSubgraph:
    """Undirected subgraph on {e} union one-hop neighbors, owner first.

    Neighbor vertices follow canonical name order.  An edge (u, v) exists iff
    any triple links u and v in either direction, including edges among the
    neighbors and self-loop triples.
    """
    snapshot._check_entity(e)
    nbrs = sorted(snapshot.neighbor_map[e], key=lambda i: snapshot.entity_names[i])
    ids = [e] + nbrs
    index = {u: i for i, u in enumerate(ids)}
    edges = [(i, i) for i, u in enumerate(ids) if (u, u) in snapshot.pair_map]
    edges += [(i, j) for i, u in enumerate(ids) for v in snapshot.neighbor_map[u]
              if (j := index.get(v, -1)) > i]
    vertices = tuple(ContextVertex(ENTITY, (i,)) for i in ids)
    return ContextSubgraph((ENTITY, e), vertices, _edge_array(edges))


def _relation_paths(snapshot: Snapshot, r: int, pair: tuple[int, int],
                    max_midpoints: int) -> set[tuple[int, ...]]:
    """Forward-direction relation paths of length 1 or 2 connecting ``pair``.

    Length-1 paths exclude r itself (it is the owner vertex).  Midpoints may
    revisit the endpoints, so short cycles are allowed.
    """
    a, b = pair
    paths: set[tuple[int, ...]] = set()
    for r1 in snapshot.pair_map.get((a, b), frozenset()):
        if r1 != r:
            paths.add((r1,))
    mids = sorted({t for _, t in snapshot.out_map[a] if (t, b) in snapshot.pair_map},
                  key=lambda i: snapshot.entity_names[i])
    if len(mids) > max_midpoints:
        logger.warning(
            "relation %s pair (%s, %s): %d candidate midpoints truncated to %d",
            snapshot.relation_names[r], snapshot.entity_names[a],
            snapshot.entity_names[b], len(mids), max_midpoints)
        mids = mids[:max_midpoints]
    for c in mids:
        for r1 in snapshot.pair_map[(a, c)]:
            for r2 in snapshot.pair_map[(c, b)]:
                paths.add((r1, r2))
    return paths


def relation_context(snapshot: Snapshot, r: int,
                     max_midpoints: int = DEFAULT_MAX_MIDPOINTS) -> ContextSubgraph:
    """Relation paths alongside r, deduplicated across its entity pairs.

    The owner r sits at index 0 and is adjacent to every path vertex; two
    path vertices are adjacent iff at least one of r's pairs is connected by
    both of them.
    """
    snapshot._check_relation(r)
    pairs = snapshot.relation_pairs[r]
    by_pair: list[set[tuple[int, ...]]] = [
        _relation_paths(snapshot, r, p, max_midpoints) for p in pairs
    ]
    all_paths = sorted(
        {path for paths in by_pair for path in paths},
        key=lambda path: tuple(snapshot.relation_names[m] for m in path),
    )
    index = {path: i + 1 for i, path in enumerate(all_paths)}
    vertices = [ContextVertex(RELATION, (r,))]
    vertices += [ContextVertex(RELATION_PATH, path) for path in all_paths]
    edges = {(0, i) for i in index.values()}
    for paths in by_pair:
        edges.update(combinations(sorted(index[p] for p in paths), 2))
    return ContextSubgraph((RELATION, r), tuple(vertices), _edge_array(edges))


def build_context(snapshot: Snapshot, ref: ObjectRef,
                  max_midpoints: int = DEFAULT_MAX_MIDPOINTS) -> ContextSubgraph:
    kind, obj = ref
    if kind == ENTITY:
        return entity_context(snapshot, obj)
    if kind == RELATION:
        return relation_context(snapshot, obj, max_midpoints=max_midpoints)
    raise ValueError(f"unknown object kind: {kind}")


# -- many contexts at once ---------------------------------------------------


@dataclass
class ContextArrays:
    """Contexts of several owners of one kind, stacked in flat arrays.

    Context b has ``sizes[b]`` vertices, the owner first; vertex p has
    ``vertex_members[p]`` members, stacked in vertex order in ``members``;
    context b's ``edge_counts[b]`` edges, local index pairs as in
    ``ContextSubgraph.edges``, are stacked in context order in ``edges``.
    The owner vertex has the owner's kind; the other vertices are entities
    in an entity context and relation paths in a relation context.
    """

    owners: np.ndarray          # (B,)
    sizes: np.ndarray           # (B,)
    vertex_members: np.ndarray  # (V,)
    members: np.ndarray         # (M,)
    edge_counts: np.ndarray     # (B,)
    edges: np.ndarray           # (E, 2)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[k], starts[k] + counts[k])`` over k."""
    ends = counts.cumsum()
    return (starts - ends + counts).repeat(counts) + np.arange(ends[-1] if ends.size else 0)


def _entity_contexts(snapshot: Snapshot, owners: np.ndarray) -> ContextArrays:
    """``entity_context`` of every owner, from the CSR links.

    The owner's row holds an edge to each of its links, in order.  A
    neighbour u at local index i scans only the part of its link list
    above its own name rank, found by one lookup of (u, u); each w there
    lies above u in the owner's name-ordered list, so j > i, and w's index
    j is found by looking the link (owner, w) up in the sorted link codes.
    Each row lists its self-loop first, then its edges in j order.
    """
    links = snapshot.links
    n_e, rank = snapshot.num_entities, snapshot.name_rank
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
    row = np.repeat(nbr, count)                              # vertex scanning a link
    owner = owners[context[row]]
    code = owner * n_e + rank[links.nbrs[_ranges(above, count)]]
    at = np.minimum(np.searchsorted(links.keys, code), links.keys.size - 1)
    inside = links.keys[at] == code
    row = row[inside]
    loops = np.flatnonzero(links.loop[verts])
    rows = np.concatenate((loops, first[context[nbr]], row))
    pairs = np.concatenate((np.repeat(local[loops], 2).reshape(-1, 2),
                            np.stack((np.zeros_like(nbr), local[nbr]), axis=1),
                            np.stack((local[row], at[inside] - links.ptr[owner[inside]] + 1),
                                     axis=1)))
    return ContextArrays(
        owners=owners, sizes=sizes,
        vertex_members=np.ones(verts.size, dtype=np.intp), members=verts,
        edge_counts=np.bincount(context[rows], minlength=owners.size),
        edges=pairs[np.argsort(rows, kind="stable")])


def _relation_contexts(snapshot: Snapshot, owners: np.ndarray,
                       max_midpoints: int) -> tuple[ContextArrays, np.ndarray]:
    """``relation_context`` of every owner, from the pair index.

    A path is coded by its relations' name ranks as
    ``rank[r1] * (n_r + 1) + (0 | rank[r2] + 1)``, so sorting codes sorts
    paths by their name tuples.  Also returns a row (relation, head, tail,
    midpoint count) for each owner pair whose midpoints were truncated, in
    the order ``relation_context`` warns about them.
    """
    pairs = snapshot.pairs
    n_e, n_r = snapshot.num_entities, snapshot.num_relations
    rank = snapshot.relation_rank
    width = n_r + 1
    n_rels = np.diff(pairs.ptr)
    # one owner pair per triple of each owner, in owner order, file order within
    count = pairs.rptr[owners + 1] - pairs.rptr[owners]
    pair = pairs.of_relation[_ranges(pairs.rptr[owners], count)]
    owner_of = np.repeat(np.arange(owners.size), count)
    relation = owners[owner_of]
    head = pairs.keys[pair] // n_e

    # length 1: the pair's other relations
    row = np.repeat(np.arange(pair.size), n_rels[pair])
    r1 = pairs.rels[_ranges(pairs.ptr[pair], n_rels[pair])]
    other = r1 != relation[row]
    path_rows, path_codes = [row[other]], [rank[r1[other]] * width]

    # midpoints c: the out-pairs (a, c), in c's name order, then (c, b),
    # looked up in the transposed index as one ascending run per owner pair
    deg = np.diff(pairs.out)
    row = np.repeat(np.arange(pair.size), deg[head])
    first_leg = _ranges(pairs.out[head], deg[head])
    code = pairs.tails[pair[row]] * n_e + pairs.keys[first_leg] % n_e
    at = np.minimum(np.searchsorted(pairs.into_keys, code), pairs.into_keys.size - 1)
    found = pairs.into_keys[at] == code
    row, first_leg, second_leg = row[found], first_leg[found], pairs.into_pair[at[found]]
    n_mids = np.bincount(row, minlength=pair.size)
    kept = _ranges(0, n_mids) < max_midpoints
    row, first_leg, second_leg = row[kept], first_leg[kept], second_leg[kept]
    cut = np.flatnonzero(n_mids > max_midpoints)
    truncated = np.stack((relation[cut], head[cut], pairs.tails[pair[cut]], n_mids[cut]),
                         axis=1)

    # length 2: every relation of (a, c) followed by every relation of (c, b)
    n1, n2 = n_rels[first_leg], n_rels[second_leg]
    mid = np.repeat(np.arange(row.size), n1 * n2)
    k = _ranges(0, n1 * n2)
    r1 = pairs.rels[pairs.ptr[first_leg][mid] + k // n2[mid]]
    r2 = pairs.rels[pairs.ptr[second_leg][mid] + k % n2[mid]]
    path_rows.append(row[mid])
    path_codes.append(rank[r1] * width + rank[r2] + 1)

    # each pair's distinct paths; each owner's distinct paths are its vertices
    square = width * width
    row, path = np.divmod(np.unique(np.concatenate(path_rows) * square
                                    + np.concatenate(path_codes)), square)
    owner_path = owner_of[row] * square + path
    vertex_codes = np.unique(owner_path)
    sizes = 1 + np.bincount(vertex_codes // square, minlength=owners.size)
    first = np.cumsum(sizes) - sizes
    context = np.repeat(np.arange(owners.size), sizes)
    is_path = np.ones(context.size, dtype=bool)
    is_path[first] = False
    paths = np.flatnonzero(is_path)
    local = np.arange(context.size) - first[context]
    vertex = paths[np.searchsorted(vertex_codes, owner_path)]

    # edges: the owner to every path, and the paths of one pair to each other
    group = np.bincount(row, minlength=pair.size)
    partners = group[row] - 1 - _ranges(0, group)
    left = np.repeat(np.arange(row.size), partners)
    right = left + 1 + _ranges(0, partners)
    span = int(sizes.max(initial=1))
    at, j = np.divmod(np.unique(np.concatenate((
        first[context[paths]] * span + local[paths],
        vertex[left] * span + local[vertex[right]]))), span)

    path = vertex_codes % square
    two = path % width > 0
    by_rank = np.argsort(rank)
    vertex_members = np.ones(context.size, dtype=np.intp)
    vertex_members[paths] += two
    start = np.cumsum(vertex_members) - vertex_members
    members = np.empty(int(vertex_members.sum()), dtype=np.intp)
    members[start[first]] = owners
    members[start[paths]] = by_rank[path // width]
    members[start[paths[two]] + 1] = by_rank[path[two] % width - 1]
    return ContextArrays(
        owners=owners, sizes=sizes, vertex_members=vertex_members, members=members,
        edge_counts=np.bincount(context[at], minlength=owners.size),
        edges=np.stack((local[at], j), axis=1)), truncated


def _chunks(snapshot: Snapshot, kind: str, owners: np.ndarray) -> list[np.ndarray]:
    """``owners``, objects of one kind, split into runs of about BUILD_CHUNK
    work each."""
    if kind == ENTITY:
        links = snapshot.links
        deg = np.diff(links.ptr)
        scanned = np.concatenate(([0], np.cumsum(deg[links.nbrs])))
        work = 1 + deg[owners] + scanned[links.ptr[owners + 1]] - scanned[links.ptr[owners]]
    else:
        # the midpoint expansion: each pair (a, b) of r scans a's out-pairs
        pairs = snapshot.pairs
        heads = pairs.keys[pairs.of_relation] // snapshot.num_entities
        scanned = np.concatenate(([0], np.cumsum(np.diff(pairs.out)[heads])))
        work = 1 + scanned[pairs.rptr[owners + 1]] - scanned[pairs.rptr[owners]]
    run = (np.cumsum(work) - work) // BUILD_CHUNK
    return np.split(owners, np.flatnonzero(np.diff(run)) + 1)


def _concat(parts: list[ContextArrays]) -> ContextArrays:
    """The contexts of ``parts`` in one ``ContextArrays``, in part order;
    edges hold local indices, so they need no offset."""
    return ContextArrays(**{f.name: np.concatenate([getattr(p, f.name) for p in parts])
                            for f in fields(ContextArrays)})


def build_contexts(snapshot: Snapshot, kind: str, owners: np.ndarray,
                   max_midpoints: int = DEFAULT_MAX_MIDPOINTS) -> ContextArrays:
    """Uncapped contexts of ``owners``, objects of one kind, in flat form:
    the vertices and edges ``build_context`` gives for each, in owner order.
    They are built in runs of about BUILD_CHUNK work (``_chunks``), which
    bounds the builders' temporaries, and concatenated; the midpoint
    truncations of the whole call are logged as one warning."""
    owners = np.asarray(owners, dtype=np.intp)
    if kind == ENTITY:
        return _concat([_entity_contexts(snapshot, part)
                        for part in _chunks(snapshot, kind, owners)])
    if kind != RELATION:
        raise ValueError(f"unknown object kind: {kind}")
    built = [_relation_contexts(snapshot, part, max_midpoints)
             for part in _chunks(snapshot, kind, owners)]
    truncated = np.concatenate([cut for _, cut in built])
    if truncated.size:
        logger.warning(
            "%d relation pairs: candidate midpoints truncated to %d (largest count %d); "
            "relations: %s", len(truncated), max_midpoints, truncated[:, 3].max(),
            ", ".join(snapshot.relation_names[r]
                      for r in dict.fromkeys(truncated[:, 0].tolist())))
    return _concat([ctx for ctx, _ in built])


def _select(ctx: ContextArrays, keep: np.ndarray) -> ContextArrays:
    """The contexts flagged in the boolean ``keep``, in their order."""
    vertex = np.repeat(keep, ctx.sizes)
    return ContextArrays(
        owners=ctx.owners[keep], sizes=ctx.sizes[keep],
        vertex_members=ctx.vertex_members[vertex],
        members=ctx.members[np.repeat(vertex, ctx.vertex_members)],
        edge_counts=ctx.edge_counts[keep],
        edges=ctx.edges[np.repeat(keep, ctx.edge_counts)])


# -- change detection --------------------------------------------------------


def changed_context_objects(g_old: Snapshot, g_new: Snapshot,
                            diff: SnapshotDiff | None = None) -> frozenset[ObjectRef]:
    """Objects present in both snapshots whose context signature changed.

    Ids in the result refer to the new snapshot.  Emerging and removed
    objects are never included.  Objects are matched by name, so ``diff``
    is not read; callers may pass the one they hold.
    """
    changed: set[ObjectRef] = set()
    for kind, old_ids, new_ids, context in (
            (ENTITY, g_old.entity_ids, g_new.entity_ids, entity_context),
            (RELATION, g_old.relation_ids, g_new.relation_ids, relation_context)):
        for name, new_id in new_ids.items():
            old_id = old_ids.get(name)
            if old_id is not None and (context_signature(context(g_old, old_id), g_old)
                                       != context_signature(context(g_new, new_id), g_new)):
                changed.add((kind, new_id))
    return frozenset(changed)


def _member_counts(ctx: ContextArrays) -> np.ndarray:
    ends = np.cumsum(ctx.vertex_members)[np.cumsum(ctx.sizes) - 1]
    return np.diff(ends, prepend=0)


def _same_contexts(old: ContextArrays, new: ContextArrays, to_new: np.ndarray) -> np.ndarray:
    """Per context, whether ``old``'s, its members mapped to new ids through
    ``to_new`` (-1 for a removed object), equals ``new``'s.

    Both builders emit vertices in name order, and two surviving names keep
    their relative order, so equal contexts give equal arrays.  Contexts of
    equal size, edge count and member count are compared element by
    element; they line up once the others are dropped.
    """
    same = ((old.sizes == new.sizes) & (old.edge_counts == new.edge_counts)
            & (_member_counts(old) == _member_counts(new)))
    at = np.flatnonzero(same)
    old, new = _select(old, same), _select(new, same)
    vertex_of = np.repeat(np.arange(at.size), new.sizes)
    differs = np.zeros(at.size, dtype=bool)
    differs[vertex_of[old.vertex_members != new.vertex_members]] = True
    differs[np.repeat(vertex_of, new.vertex_members)[to_new[old.members] != new.members]] = True
    differs[np.repeat(np.arange(at.size), new.edge_counts)[
        (old.edges != new.edges).any(axis=1)]] = True
    same[at[differs]] = False
    return same


def _changed_ends(diff: SnapshotDiff) -> tuple[np.ndarray, np.ndarray]:
    """Heads and tails of the added, then the deleted triples, as g_new ids,
    -1 for a removed entity."""
    to_new = diff.entity_map.to_new
    return tuple(np.concatenate((diff.added_triples[:, k], to_new[diff.deleted_triples[:, k]]))
                 for k in (0, 2))


def _changed_entities(g_new: Snapshot, diff: SnapshotDiff) -> np.ndarray:
    """Sorted g_new ids of the surviving entities whose context changed.

    A link, an unordered entity pair with u = v allowed, changes when it is
    linked in exactly one snapshot, so only a pair an added or deleted
    triple joins can; g_old's triples joining it are g_new's less the added
    plus the deleted ones.  An entity's context changes exactly when it is
    an end of a changed link, or lies in g_new's closed neighbourhood of
    both ends (for a loop on u, u's neighbours), which it then shares with
    g_old."""
    n = g_new.num_entities
    heads, tails = _changed_ends(diff)
    lo, hi = np.minimum(heads, tails), np.maximum(heads, tails)
    # a pair with a removed end, all deleted, is linked in g_old alone
    gone = lo < 0
    code, pair = np.unique(lo[~gone] * n + hi[~gone], return_inverse=True)
    n_added = len(diff.added_triples)
    old_less_new = (np.bincount(pair[n_added:], minlength=code.size)
                    - np.bincount(pair[:n_added], minlength=code.size))
    u, v = np.divmod(code, n)
    pairs, rank = g_new.pairs, g_new.name_rank
    # g_new's triples (u, v), then (v, u)
    key = np.concatenate((u, v)) * n + rank[np.concatenate((v, u))]
    at = np.minimum(np.searchsorted(pairs.keys, key), pairs.keys.size - 1)
    joining = np.where(pairs.keys[at] == key, np.diff(pairs.ptr)[at], 0)
    new = joining[:u.size] + np.where(u < v, joining[u.size:], 0)
    changed = (new > 0) != (new + old_less_new > 0)
    u, v = u[changed], v[changed]
    # the common neighbours: the links of the end with fewer, each looked
    # up among the other end's
    links = g_new.links
    deg = np.diff(links.ptr)
    fewer = deg[u] <= deg[v]
    a, b = np.where(fewer, u, v), np.where(fewer, v, u)
    w = links.nbrs[_ranges(links.ptr[a], deg[a])]
    key = np.repeat(b, deg[a]) * n + rank[w]
    at = np.minimum(np.searchsorted(links.keys, key), links.keys.size - 1)
    ids = np.unique(np.concatenate((u, v, hi[gone], w[links.keys[at] == key])))
    return ids[(ids >= 0) & (diff.entity_map.to_old[ids] >= 0)]


def candidate_relations(g_new: Snapshot, diff: SnapshotDiff) -> np.ndarray:
    """Sound overapproximation of the relations whose context may have
    changed, as sorted g_new ids.

    Any context change is triggered by an added or deleted triple; the
    affected relations are those of changed triples plus any relation with
    a pair starting at a changed head or ending at a changed tail.  Every
    emerging relation is the relation of an added triple.  Only candidates
    need their contexts compared.
    """
    heads, tails = _changed_ends(diff)
    ids = g_new.triple_ids
    near = np.isin(ids[:, 0], heads) | np.isin(ids[:, 2], tails)
    rel = np.concatenate((diff.added_triples[:, 1],
                          diff.relation_map.to_new[diff.deleted_triples[:, 1]], ids[near, 1]))
    return np.unique(rel[rel >= 0])


class ContextChanges(NamedTuple):
    """What ``context_changes`` finds; the first two fields are the changed
    objects as ``IdArrays``."""

    entities: np.ndarray               # sorted g_new ids, context changed
    relations: np.ndarray              # sorted g_new ids, context changed
    # uncapped g_new contexts of the emerging and the changed relations
    relation_contexts: ContextArrays


def context_changes(g_old: Snapshot, g_new: Snapshot, diff: SnapshotDiff,
                    max_midpoints: int) -> ContextChanges:
    """The objects of ``changed_context_objects``, as sorted entity and
    relation id arrays of g_new, under ``max_midpoints``, and the g_new
    contexts of the relations an update encodes.

    Entities are read off the changed links (``_changed_entities``),
    building no context.  Relations are found among ``candidate_relations``:
    the uncapped contexts of those that survived are built on g_old, then
    those of every candidate on g_new, so g_old's truncation warning comes
    first, and the two are compared as arrays.  Every emerging relation is
    a candidate, so g_new's build holds the contexts of the emerging and
    the changed relations, which are kept.
    """
    ids = candidate_relations(g_new, diff)
    old_ids = diff.relation_map.to_old[ids]
    survived = old_ids >= 0
    old = build_contexts(g_old, RELATION, old_ids[survived], max_midpoints)
    new = build_contexts(g_new, RELATION, ids, max_midpoints)
    moved = ~survived
    moved[survived] = ~_same_contexts(old, _select(new, survived),
                                      diff.relation_map.to_new)
    return ContextChanges(_changed_entities(g_new, diff), ids[moved & survived],
                          _select(new, moved))


# -- per-run context table ---------------------------------------------------


def _object_seed(seed: int, kind: str, name: str) -> list[int]:
    digest = hashlib.blake2b(f"{kind}:{name}".encode("utf-8"), digest_size=8).digest()
    return [seed, int.from_bytes(digest, "big")]


@dataclass
class ContextPass:
    """The capped contexts of one encoder pass, stacked in pass order.

    ``batch`` holds the pass's block-diagonal S and each context's rows;
    vertex row ``member_rows[k]`` sums the contextual embedding row
    ``member_ids[k]``.
    """

    batch: agcn.ContextBatch
    member_rows: np.ndarray
    member_ids: np.ndarray


class _FlatStore:
    """What an encoder pass gathers of the capped contexts of one kind built
    so far, in flat arrays.

    A stored context has a slot; ``vptr``, ``mptr`` and ``sptr`` delimit,
    slot by slot, its vertices (``vertex_members`` and ``row_nnz`` per
    vertex), members and its rows' S entries (``s_data`` with columns
    ``s_cols`` local to the context).  The edges are not kept: S holds them.
    """

    def __init__(self, n_objects: int):
        self.slot = np.full(n_objects, -1, dtype=np.intp)
        self.vptr = self.mptr = self.sptr = np.zeros(1, dtype=np.intp)
        self.vertex_members = self.members = np.zeros(0, dtype=np.intp)
        # local indices within a capped context: int32, as scipy keeps them
        self.row_nnz = self.s_cols = np.zeros(0, dtype=np.int32)
        self.s_data = np.zeros(0)

    def append(self, ctx: ContextArrays) -> None:
        """Store capped contexts with their S entries, computed here once."""
        s = agcn.normalize_adjacency(ctx.sizes, ctx.edges, ctx.edge_counts)
        ends = np.cumsum(ctx.sizes)
        row_nnz = np.diff(s.indptr)
        members_before = np.concatenate(([0], np.cumsum(ctx.vertex_members)))
        first_row = np.repeat(ends - ctx.sizes, ctx.sizes)
        self.slot[ctx.owners] = np.arange(ctx.owners.size) + self.vptr.size - 1
        self.vptr = np.concatenate((self.vptr, self.vptr[-1] + ends))
        self.mptr = np.concatenate((self.mptr, self.mptr[-1] + members_before[ends]))
        self.sptr = np.concatenate((self.sptr, self.sptr[-1] + s.indptr[ends]))
        self.vertex_members = np.concatenate((self.vertex_members, ctx.vertex_members))
        self.row_nnz = np.concatenate((self.row_nnz, row_nnz), dtype=np.int32)
        self.members = np.concatenate((self.members, ctx.members))
        self.s_data = np.concatenate((self.s_data, s.data))
        self.s_cols = np.concatenate((self.s_cols, s.indices - np.repeat(first_row, row_nnz)),
                                     dtype=np.int32)

    def gather(self, at: np.ndarray) -> ContextPass:
        """The contexts stored at slots ``at``: their vertex rows, members
        and S entries found by ptr arithmetic (PyG's batch/ptr vectors), S
        assembled with each context's columns offset by the rows before it."""
        first = self.vptr[at]
        sizes = self.vptr[at + 1] - first
        rows = _ranges(first, sizes)
        first = self.mptr[at]
        members = _ranges(first, self.mptr[at + 1] - first)
        first = self.sptr[at]
        nnz = self.sptr[at + 1] - first
        entries = _ranges(first, nnz)
        starts = sizes.cumsum() - sizes
        segment = np.arange(at.size).repeat(sizes)
        cols = self.s_cols[entries] + starts.repeat(nnz)
        per_vertex = self.vertex_members[rows]
        n = per_vertex.size
        indptr = np.zeros(n + 1, dtype=self.row_nnz.dtype)
        self.row_nnz[rows].cumsum(out=indptr[1:])
        norm_adj = sparse.csr_array((self.s_data[entries], cols, indptr), shape=(n, n))
        return ContextPass(agcn.ContextBatch(norm_adj, starts, segment),
                           np.arange(n).repeat(per_vertex), self.members[members])


class ContextTable:
    """Lazy per-snapshot store of capped contexts, each at its real size.

    Contexts are built in bulk, only when first asked for, and stored per
    kind in flat arrays together with their normalised S entries.
    Sampling of oversized contexts draws from an rng derived from the run
    seed and the owner's name, so a context does not depend on the order in
    which the table is filled, and two snapshots sharing an unchanged object
    reproduce the identical sample under the same seed.
    """

    def __init__(self, snapshot: Snapshot, *, cap: int = DEFAULT_CAP,
                 seed: int = 0, max_midpoints: int = DEFAULT_MAX_MIDPOINTS):
        if cap < 1:
            raise ConfigError(f"cap must be >= 1, got {cap}")
        if max_midpoints < 0:
            raise ConfigError(f"max midpoints must be >= 0, got {max_midpoints}")
        self.snapshot = snapshot
        self.cap = cap
        self.seed = seed
        self.max_midpoints = max_midpoints
        self._stores = {ENTITY: _FlatStore(snapshot.num_entities),
                        RELATION: _FlatStore(snapshot.num_relations)}

    def _names(self, kind: str) -> tuple[str, ...]:
        return (self.snapshot.entity_names if kind == ENTITY
                else self.snapshot.relation_names)

    def _ids(self, kind: str, ids) -> np.ndarray:
        """``ids`` as an intp array; an id outside ``[0, n)`` for the kind
        raises UnknownObjectError naming the kind and the id."""
        if kind not in self._stores:
            raise ValueError(f"unknown object kind: {kind}")
        ids = np.asarray(ids, dtype=np.intp)
        bad = ids[(ids < 0) | (ids >= self._stores[kind].slot.size)]
        if bad.size:
            raise UnknownObjectError(kind, int(bad[0]))
        return ids

    def _capped(self, kind: str, ctx: ContextArrays) -> ContextArrays:
        """The contexts, each above the cap sampled down to the owner plus
        cap - 1 other vertices in their order."""
        sizes = ctx.sizes
        first = np.cumsum(sizes) - sizes
        kept = np.ones(int(sizes.sum()), dtype=bool)
        names = self._names(kind)
        for b in np.flatnonzero(sizes > self.cap).tolist():
            rng = np.random.default_rng(_object_seed(self.seed, kind, names[ctx.owners[b]]))
            rest = rng.choice(np.arange(1, sizes[b]), size=self.cap - 1, replace=False)
            kept[first[b] + 1:first[b] + sizes[b]] = False
            kept[first[b] + rest] = True
        context = np.repeat(np.arange(sizes.size), sizes)
        before = np.cumsum(kept) - kept
        # new index of a vertex in its context, -1 when dropped; increasing,
        # so sorted edges stay sorted
        position = np.where(kept, before - before[first][context], -1)
        edge_context = np.repeat(np.arange(sizes.size), ctx.edge_counts)
        edges = position[first[edge_context, None] + ctx.edges]
        live = (edges >= 0).all(axis=1)
        return ContextArrays(
            owners=ctx.owners,
            sizes=np.bincount(context[kept], minlength=sizes.size),
            vertex_members=ctx.vertex_members[kept],
            members=ctx.members[np.repeat(kept, ctx.vertex_members)],
            edge_counts=np.bincount(edge_context[live], minlength=sizes.size),
            edges=edges[live])

    def add(self, kind: str, ctx: ContextArrays) -> None:
        """Store capped copies of the uncapped contexts ``ctx``, as
        ``build_contexts`` gives them on this table's snapshot under its
        ``max_midpoints``, of objects of one kind not stored yet."""
        if ctx.owners.size:
            self._stores[kind].append(self._capped(kind, ctx))

    def build(self, kind: str, ids) -> None:
        """Build the contexts of ``ids`` not stored yet, in one bulk call."""
        ids = self._ids(kind, ids)
        missing = ids[self._stores[kind].slot[ids] < 0]
        if missing.size:
            self.add(kind, build_contexts(self.snapshot, kind, np.unique(missing),
                                          self.max_midpoints))

    def build_all(self) -> None:
        self.build(ENTITY, np.arange(self.snapshot.num_entities))
        self.build(RELATION, np.arange(self.snapshot.num_relations))

    def rows(self, kind: str, ids) -> np.ndarray:
        """Vertex counts of the capped contexts of ``ids``, objects of one
        kind, owner included.  An entity's is min(degree + 1, cap), read
        off the links, and builds nothing; a relation's is known once its
        context is built, so the missing ones are built first."""
        ids = self._ids(kind, ids)
        if kind == ENTITY:
            ptr = self.snapshot.links.ptr
            return np.minimum(ptr[ids + 1] - ptr[ids] + 1, self.cap)
        self.build(kind, ids)
        store = self._stores[kind]
        at = store.slot[ids]
        return store.vptr[at + 1] - store.vptr[at]

    def gather(self, kind: str, ids) -> ContextPass:
        """The capped contexts of ``ids``, objects of one kind, for one
        encoder pass; builds the missing ones first."""
        ids = self._ids(kind, ids)
        store = self._stores[kind]
        at = store.slot[ids]
        if (at < 0).any():
            self.build(kind, ids)
            at = store.slot[ids]
        return store.gather(at)

    def get(self, ref: ObjectRef) -> ContextSubgraph:
        """One capped context as a ``ContextSubgraph``, built afresh by the
        code that makes the stored copy (``build_contexts``, then
        ``_capped``); nothing is stored."""
        kind, obj = ref
        ctx = self._capped(kind, build_contexts(self.snapshot, kind, self._ids(kind, [obj]),
                                                self.max_midpoints))
        members = iter(ctx.members.tolist())
        other = ENTITY if kind == ENTITY else RELATION_PATH
        vertices = tuple(ContextVertex(kind if p == 0 else other,
                                       tuple(next(members) for _ in range(k)))
                         for p, k in enumerate(ctx.vertex_members.tolist()))
        return ContextSubgraph((kind, obj), vertices, ctx.edges)

    def entity(self, e: int) -> ContextSubgraph:
        return self.get((ENTITY, e))

    def relation(self, r: int) -> ContextSubgraph:
        return self.get((RELATION, r))
