"""Context subgraphs for entities and relations.

The context of an entity e is the undirected subgraph induced on e and its
one-hop neighbors, including the edges among the neighbors themselves.  The
context of a relation r contains r plus every relation path of length 1 or 2
(following triple direction) that connects an ordered entity pair also linked
by r; r is adjacent to every path vertex, and two path vertices are adjacent
iff some pair is connected by both.

Contexts above the vertex cap are sampled down (owner always kept) before
entering the graph encoder.
Signatures are content hashes of the *uncapped* context, computed over names
rather than ids so they are comparable across snapshots and file orderings.
"""
from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kg_store import Snapshot, SnapshotDiff, diff_snapshots

logger = logging.getLogger(__name__)

ENTITY = "entity"
RELATION = "relation"
RELATION_PATH = "relation-path"

# (kind, id) with kind in {ENTITY, RELATION}
ObjectRef = tuple[str, int]

DEFAULT_CAP = 35
DEFAULT_MAX_MIDPOINTS = 1000


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
    owner: ObjectRef
    vertices: tuple[ContextVertex, ...]
    adjacency: np.ndarray  # (n, n) float64 entries in {0, 1}, symmetric
    signature: int

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Edges as (i, j) index pairs with i <= j."""
        m = len(self.vertices)
        out = set()
        for i in range(m):
            for j in range(i, m):
                if self.adjacency[i, j]:
                    out.add((i, j))
        return frozenset(out)


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
    edges = []
    m = len(keys)
    for i in range(m):
        for j in range(i, m):
            if subgraph.adjacency[i, j]:
                edges.append(tuple(sorted((keys[i], keys[j]))))
    owner_kind = subgraph.owner[0]
    payload = repr((owner_kind, sorted(keys), sorted(edges))).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=16).digest(), "big")


def _finish(owner: ObjectRef, vertices: list[ContextVertex], adjacency: np.ndarray,
            snapshot: Snapshot, cap: int | None, rng) -> ContextSubgraph:
    sub = ContextSubgraph(owner=owner, vertices=tuple(vertices), adjacency=adjacency,
                          signature=0)
    sub.signature = context_signature(sub, snapshot)
    if cap is not None and len(vertices) > cap:
        if rng is None:
            raise ConfigError("capping a context requires an rng")
        sub = _sample(sub, cap, rng)
    return sub


def _sample(sub: ContextSubgraph, cap: int, rng: np.random.Generator) -> ContextSubgraph:
    """Keep the owner plus a uniform sample of cap-1 other vertices.

    Relative (canonical) vertex order is preserved; the signature still
    describes the uncapped context.
    """
    if cap < 1:
        raise ConfigError(f"cap must be >= 1, got {cap}")
    n = len(sub.vertices)
    keep_rest = rng.choice(np.arange(1, n), size=cap - 1, replace=False)
    keep = np.concatenate(([0], np.sort(keep_rest)))
    return ContextSubgraph(
        owner=sub.owner,
        vertices=tuple(sub.vertices[i] for i in keep),
        adjacency=sub.adjacency[np.ix_(keep, keep)].copy(),
        signature=sub.signature,
    )


def entity_context(snapshot: Snapshot, e: int, cap: int | None = None,
                   rng: np.random.Generator | None = None) -> ContextSubgraph:
    """Undirected subgraph on {e} union one-hop neighbors, owner first.

    Neighbor vertices follow canonical name order.  An edge (u, v) exists iff
    any triple links u and v in either direction, including edges among the
    neighbors and self-loop triples.
    """
    snapshot._check_entity(e)
    nbrs = sorted(snapshot.neighbor_map[e], key=lambda i: snapshot.entity_names[i])
    ids = [e] + nbrs
    vertices = [ContextVertex(ENTITY, (i,)) for i in ids]
    n = len(ids)
    adj = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            u, v = ids[i], ids[j]
            if i == j:
                if (u, u) in snapshot.pair_map:
                    adj[i, i] = 1.0
            elif snapshot.linked(u, v):
                adj[i, j] = adj[j, i] = 1.0
    return _finish((ENTITY, e), vertices, adj, snapshot, cap, rng)


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


def relation_context(snapshot: Snapshot, r: int, cap: int | None = None,
                     rng: np.random.Generator | None = None,
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
    n = len(vertices)
    adj = np.zeros((n, n), dtype=np.float64)
    for path in all_paths:
        i = index[path]
        adj[0, i] = adj[i, 0] = 1.0
    for paths in by_pair:
        group = sorted(index[p] for p in paths)
        for ai in range(len(group)):
            for bi in range(ai + 1, len(group)):
                adj[group[ai], group[bi]] = adj[group[bi], group[ai]] = 1.0
    return _finish((RELATION, r), vertices, adj, snapshot, cap, rng)


def build_context(snapshot: Snapshot, ref: ObjectRef, cap: int | None = None,
                  rng: np.random.Generator | None = None,
                  max_midpoints: int = DEFAULT_MAX_MIDPOINTS) -> ContextSubgraph:
    kind, obj = ref
    if kind == ENTITY:
        return entity_context(snapshot, obj, cap=cap, rng=rng)
    if kind == RELATION:
        return relation_context(snapshot, obj, cap=cap, rng=rng,
                                max_midpoints=max_midpoints)
    raise ValueError(f"unknown object kind: {kind}")


# -- change detection --------------------------------------------------------


def signatures_by_name(snapshot: Snapshot,
                       max_midpoints: int = DEFAULT_MAX_MIDPOINTS) -> dict[tuple[str, str], int]:
    """Uncapped context signature of every object, keyed by (kind, name)."""
    out: dict[tuple[str, str], int] = {}
    for e in range(snapshot.num_entities):
        out[(ENTITY, snapshot.entity_names[e])] = entity_context(snapshot, e).signature
    for r in range(snapshot.num_relations):
        out[(RELATION, snapshot.relation_names[r])] = relation_context(
            snapshot, r, max_midpoints=max_midpoints).signature
    return out


def changed_context_objects(g_old: Snapshot, g_new: Snapshot,
                            diff: SnapshotDiff | None = None) -> frozenset[ObjectRef]:
    """Objects present in both snapshots whose context signature changed.

    Ids in the result refer to the new snapshot.  Emerging and removed
    objects are never included.
    """
    if diff is None:
        diff = diff_snapshots(g_old, g_new)
    changed: set[ObjectRef] = set()
    for name, new_id in g_new.entity_ids.items():
        old_id = g_old.entity_ids.get(name)
        if old_id is None:
            continue
        if entity_context(g_old, old_id).signature != entity_context(g_new, new_id).signature:
            changed.add((ENTITY, new_id))
    for name, new_id in g_new.relation_ids.items():
        old_id = g_old.relation_ids.get(name)
        if old_id is None:
            continue
        if relation_context(g_old, old_id).signature != relation_context(g_new, new_id).signature:
            changed.add((RELATION, new_id))
    return frozenset(changed)


def candidate_changed_names(g_old: Snapshot, g_new: Snapshot,
                            diff: SnapshotDiff) -> tuple[set[str], set[str]]:
    """Sound overapproximation of the objects whose context may have changed.

    Any context change is triggered by an added or deleted triple; the
    affected entities are its endpoints and their neighbors (old or new
    side), and the affected relations are those of changed triples plus any
    relation with a pair starting at a changed head or ending at a changed
    tail.  Only candidates returned here need their signatures recomputed.
    """
    changed_names = ([g_new.triple_names(t) for t in diff.added_triples]
                     + [g_old.triple_names(t) for t in diff.deleted_triples])
    ent: set[str] = set()
    rel: set[str] = set()
    head_rels: dict[str, set[str]] = {}
    tail_rels: dict[str, set[str]] = {}
    for h, r, t in g_new.name_triples():
        head_rels.setdefault(h, set()).add(r)
        tail_rels.setdefault(t, set()).add(r)

    def neighbor_names(snap: Snapshot, name: str) -> set[str]:
        eid = snap.entity_ids.get(name)
        if eid is None:
            return set()
        return {snap.entity_names[n] for n in snap.neighbor_map[eid]}

    for h, r, t in changed_names:
        rel.add(r)
        for endpoint in (h, t):
            ent.add(endpoint)
            ent |= neighbor_names(g_old, endpoint)
            ent |= neighbor_names(g_new, endpoint)
        rel |= head_rels.get(h, set())
        rel |= tail_rels.get(t, set())
    return ent, rel


# -- per-run context table ---------------------------------------------------


def _object_seed(seed: int, kind: str, name: str) -> list[int]:
    digest = hashlib.blake2b(f"{kind}:{name}".encode("utf-8"), digest_size=8).digest()
    return [seed, int.from_bytes(digest, "big")]


class ContextTable:
    """Lazy per-snapshot cache of capped contexts, each at its real size.

    Sampling of oversized contexts draws from an rng derived from the run
    seed and the owner's name, so a context does not depend on the order in
    which the table is filled, and two snapshots sharing an unchanged object
    reproduce the identical sample under the same seed.
    """

    def __init__(self, snapshot: Snapshot, *, cap: int = DEFAULT_CAP,
                 seed: int = 0, max_midpoints: int = DEFAULT_MAX_MIDPOINTS):
        self.snapshot = snapshot
        self.cap = cap
        self.seed = seed
        self.max_midpoints = max_midpoints
        self._cache: dict[ObjectRef, ContextSubgraph] = {}

    def get(self, ref: ObjectRef) -> ContextSubgraph:
        sub = self._cache.get(ref)
        if sub is None:
            kind, obj = ref
            name = (self.snapshot.entity_names[obj] if kind == ENTITY
                    else self.snapshot.relation_names[obj])
            rng = np.random.default_rng(_object_seed(self.seed, kind, name))
            sub = build_context(self.snapshot, ref, cap=self.cap, rng=rng,
                                max_midpoints=self.max_midpoints)
            self._cache[ref] = sub
        return sub

    def entity(self, e: int) -> ContextSubgraph:
        return self.get((ENTITY, e))

    def relation(self, r: int) -> ContextSubgraph:
        return self.get((RELATION, r))

    def signature(self, ref: ObjectRef) -> int:
        return self.get(ref).signature

    def build_all(self) -> None:
        for e in range(self.snapshot.num_entities):
            self.get((ENTITY, e))
        for r in range(self.snapshot.num_relations):
            self.get((RELATION, r))

    def signatures_by_name(self) -> dict[tuple[str, str], int]:
        self.build_all()
        out: dict[tuple[str, str], int] = {}
        for (kind, obj), sub in self._cache.items():
            name = (self.snapshot.entity_names[obj] if kind == ENTITY
                    else self.snapshot.relation_names[obj])
            out[(kind, name)] = sub.signature
        return out
